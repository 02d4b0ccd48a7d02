#!/usr/bin/env python3
"""Compares two sets of bench_bips results against BENCHMARK.json's bounds.

Usage:
  python3 bench_bips/compare.py BASE CHANGE [--bench BENCHMARK.json]

BASE and CHANGE are each a report written by `bench_bips -o FILE` (one
workload, or `--workload all`), or a directory of such reports. Reports are
paired in file-name order, so name the runs of an alternating A/B series
so that the i-th file of each side belongs to the i-th pair.

For every (workload, end-to-end metric) it prints the two medians, the
change, the bound and a verdict:
  better      the change wins at least 9 of every 10 pairs (ties count for
              neither) and the medians differ by more than the base's
              interquartile range; needs at least 10 pairs;
  worse       the change's median is worse than the base's by more than the
              bound;
  unresolved  the run-to-run spread (interquartile range over median) of
              either side exceeds the bound, so neither "same" nor "worse"
              can be told apart from noise -- unless each side has at least
              3 runs and every change run reads better (then "same") or
              every one worse by more than the bound (then "worse") than
              every base run;
  same        otherwise.
With one report per side the spread is the report's own q1/q3. For the
host-time metrics (setup_s, sim_rate) these are the quartiles of the
samples within that run. Every other metric is a single reading
(peak_rss_mb) or comes from a deterministic run that repeats exactly for
one seed; it has q1 == q3, so its spread is 0.
It also prints each side's failed-operations share: missed crossings plus
failed queries over crossings plus queries.

Exit status: 1 if any verdict is "worse", else 0.
"""
import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

MIN_PAIRS = 10
WIN_SHARE = 0.9
MIN_SEPARATED = 3


def load_reports(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith(".json")] if os.path.isdir(path) else [path])
    runs = []
    for f in files:
        with open(f) as fh:
            runs.append(workload_reports(json.load(fh)))
    return runs


def workload_reports(doc):
    """The per-workload reports of one `-o` file (one workload or `all`)."""
    return [w for w in doc["workloads"] if w] if "workloads" in doc else [doc]


def collect(runs):
    """(workload, metric) -> list of (value, q1, q3), one entry per run."""
    vals = defaultdict(list)
    ops = defaultdict(lambda: [0, 0])
    for run in runs:
        for w in run:
            for name, m in w["metrics"].items():
                vals[(w["workload"], name)].append((m["value"], m["q1"], m["q3"]))
            ops[w["workload"]][0] += w.get("ops", 0)
            ops[w["workload"]][1] += w.get("ops_failed", 0)
    return vals, ops


def spread(entries):
    """Median, interquartile range, and that range as a share of the median."""
    values = [e[0] for e in entries]
    med = statistics.median(values)
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        iqr = q[2] - q[0]
    else:
        iqr = entries[0][2] - entries[0][1]
    return med, iqr, (abs(iqr / med) if med else 0.0)


def verdict(base, change, better, bound):
    mb, iqr_b, sb = spread(base)
    mc, _, sc = spread(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (mc - mb) / abs(mb) if mb else 0.0
    bv = [e[0] for e in base]
    cv = [e[0] for e in change]

    def improves(c, b):
        return sign * (c - b) < 0

    pairs = list(zip(bv, cv))
    if len(pairs) >= MIN_PAIRS:
        wins = sum(1 for b, c in pairs if improves(c, b))
        if wins >= WIN_SHARE * len(pairs) and abs(mc - mb) > abs(iqr_b):
            return "better"
    if max(sb, sc) > bound:
        # Noisy: only a complete separation of enough runs tells.
        if min(len(bv), len(cv)) >= MIN_SEPARATED:
            if all(improves(c, b) for c in cv for b in bv):
                return "same"
            if worse_by > bound and all(improves(b, c)
                                        for c in cv for b in bv):
                return "worse"
        return "unresolved"
    return "worse" if worse_by > bound else "same"


def compare(spec, base_vals, change_vals):
    """Yields (workload, metric spec, base median, change median, verdict);
    the verdict is None when one side lacks the metric."""
    workloads = sorted({w for w, _ in base_vals} & {w for w, _ in change_vals})
    for w in workloads:
        for m in spec["end_to_end"]:
            key = (w, m["name"])
            if key not in base_vals or key not in change_vals:
                yield w, m, None, None, None
                continue
            yield (w, m, spread(base_vals[key])[0],
                   spread(change_vals[key])[0],
                   verdict(base_vals[key], change_vals[key], m["better"],
                           m["bound"]))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("change")
    p.add_argument("--bench", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    a = p.parse_args()

    with open(a.bench) as f:
        spec = json.load(f)
    base_vals, base_ops = collect(load_reports(a.base))
    change_vals, change_ops = collect(load_reports(a.change))

    any_worse = False
    print("%-8s %-18s %12s %12s %8s %6s  %s"
          % ("workload", "metric", "base", "change", "change%", "bound",
             "verdict"))
    for w, m, mb, mc, v in compare(spec, base_vals, change_vals):
        if v is None:
            print("%-8s %-18s missing on one side" % (w, m["name"]))
            continue
        any_worse |= v == "worse"
        print("%-8s %-18s %12.6g %12.6g %+7.2f%% %5.0f%%  %s"
              % (w, m["name"], mb, mc,
                 100 * (mc - mb) / abs(mb) if mb else 0.0,
                 100 * m["bound"], v))
    workloads = sorted(set(base_ops) & set(change_ops))
    for w in workloads:
        bo, co = base_ops[w], change_ops[w]
        print("%-8s failed operations: base %d/%d (%.4f), change %d/%d (%.4f)"
              % (w, bo[1], bo[0], bo[1] / bo[0] if bo[0] else 0.0,
                 co[1], co[0], co[1] / co[0] if co[0] else 0.0))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
