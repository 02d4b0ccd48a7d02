#!/bin/sh
# Replays every scenario of a corpus directory four ways and byte-diffs the
# location histories:
#   one shard, fast-forward     vs  one shard, --exact-slots
#   four shards on one thread   vs  four shards on four threads
# Every replay must exit 0 (all in-scenario assertions and invariants pass).
#
#   usage: replay_corpus.sh SCENARIO_RUNNER CORPUS_DIR OUT_DIR
set -u
runner=$1
corpus=$2
out=$3
mkdir -p "$out"
status=0
for f in "$corpus"/*.bips; do
  name=$(basename "$f" .bips)
  for mode in ff exact t1 t4; do
    case $mode in
      ff)    flags="" ;;
      exact) flags="--exact-slots" ;;
      t1)    flags="--threads 1 --shards 4" ;;
      t4)    flags="--threads 4 --shards 4" ;;
    esac
    # $flags is deliberately unquoted: it splits into separate options.
    if ! "$runner" $flags "$f" "$out/$name-$mode.csv" \
        > "$out/$name-$mode.log" 2>&1; then
      echo "FAIL: $name ($mode) exited non-zero; see $out/$name-$mode.log"
      status=1
    fi
  done
  cmp -s "$out/$name-ff.csv" "$out/$name-exact.csv" ||
    { echo "FAIL: $name: fast-forward and exact-slot histories differ"; status=1; }
  cmp -s "$out/$name-t1.csv" "$out/$name-t4.csv" ||
    { echo "FAIL: $name: 1-thread and 4-thread histories differ"; status=1; }
  echo "$name: replayed"
done
exit $status
