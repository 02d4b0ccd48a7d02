#!/bin/sh
# Replays every scenario of a corpus directory four ways and byte-diffs the
# location histories and the graded outcomes:
#   one shard, fast-forward     vs  one shard, --exact-slots
#     (histories, and the runner report's assertions block)
#   four shards on one thread   vs  four shards on four threads
#     (histories, and the whole runner report except its "ran ..." header
#     and "history written to ..." line, which name the thread count and
#     the output file)
# Every replay must exit 0 (all in-scenario assertions and invariants pass).
# The ff and exact scorecards are not compared: see ROADMAP.md on re-login
# timing under fast-forward.
#
# The pair diffs cannot see a change that moves both sides of a pair alike
# (say, every four-shard history), so the one-shard fast-forward and the
# four-shard 1-thread history of every scenario must also match its SHA-256
# in corpus_histories.sha256 next to this script (sha256sum -c format, file
# names as written to OUT_DIR). A scenario without a pinned hash fails.
#
#   usage: replay_corpus.sh SCENARIO_RUNNER CORPUS_DIR OUT_DIR
set -u
runner=$1
corpus=$2
out=$3
pins="$(cd "$(dirname "$0")" && pwd)/corpus_histories.sha256"
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
    # The report (stdout) and the log lines (stderr) go to separate files.
    if ! "$runner" $flags "$f" "$out/$name-$mode.csv" \
        > "$out/$name-$mode.report" 2> "$out/$name-$mode.log"; then
      echo "FAIL: $name ($mode) exited non-zero;" \
           "see $out/$name-$mode.report and .log"
      status=1
    fi
  done
  cmp -s "$out/$name-ff.csv" "$out/$name-exact.csv" ||
    { echo "FAIL: $name: fast-forward and exact-slot histories differ"; status=1; }
  cmp -s "$out/$name-t1.csv" "$out/$name-t4.csv" ||
    { echo "FAIL: $name: 1-thread and 4-thread histories differ"; status=1; }
  for mode in ff exact; do
    sed -n '/^--- assertions ---$/,/^$/p' "$out/$name-$mode.report" \
      > "$out/$name-$mode.graded"
  done
  cmp -s "$out/$name-ff.graded" "$out/$name-exact.graded" ||
    { echo "FAIL: $name: fast-forward and exact-slot assertion outcomes differ"; status=1; }
  for mode in t1 t4; do
    sed -e '/^ran /d' -e '/^history written to /d' "$out/$name-$mode.report" \
      > "$out/$name-$mode.graded"
  done
  cmp -s "$out/$name-t1.graded" "$out/$name-t4.graded" ||
    { echo "FAIL: $name: 1-thread and 4-thread reports differ"; status=1; }
  for mode in ff t1; do
    pinned=$(awk -v f="$name-$mode.csv" '$2 == f' "$pins")
    if [ -z "$pinned" ]; then
      echo "FAIL: $name ($mode): no pinned history hash in $pins"
      status=1
    elif ! (cd "$out" && echo "$pinned" | sha256sum -c --status); then
      echo "FAIL: $name ($mode): history differs from its pinned hash"
      status=1
    fi
  done
  echo "$name: replayed"
done
exit $status
