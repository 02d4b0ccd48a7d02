#!/usr/bin/env python3
"""Builds bench_bips from source and runs one workload of it.

Usage (from the repository root):
  python3 bench_bips/run.py --workload office --seed 1 --seconds 15 --trace 0
  python3 bench_bips/run.py --smoke [--bin PATH]

The benchmark is configured with CMake into .bench_build/ on first use and
rebuilt incrementally after that. One run executes the bench_bips binary for one
workload: at least four timed reps and more while they fit in --seconds,
extra set-up samples, then the traced rep and the probe rep (see
bench_bips/README.md). The last line of standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

attempted/failed count simulation reps; a rep fails when its outputs
disagree with the first timed rep or break an invariant. With --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list.

--smoke runs every workload shrunk to 2x4 rooms, 32 users and 10 s, twice.
It checks that every metric BENCHMARK.json names is printed for each of
them, and that compare.py judges every simulated-time metric of the second
run "same" as the first.
"""
import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import compare  # noqa: E402  (bench_bips/compare.py)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("office", "floor", "crowd", "chaos")
HOST_METRICS = ("setup_s", "sim_rate", "peak_rss_mb")
RUN_TIMEOUT_S = 170
MIN_REPS = 4


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    configured = os.path.join(BUILD, "configured")
    steps = []
    if not os.path.exists(configured):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_bips",
                  "-j", jobs])
    with open(os.path.join(BUILD, "build.log"), "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log("bench_bips: build failed (%s); see %s"
                    % (" ".join(cmd), out.name))
                return None
            if cmd[1] == "-S":
                open(configured, "w").close()
    return os.path.join(BUILD, "bench_bips")


def run_binary(binary, args, report):
    """Runs the bench_bips binary; returns its parsed JSON report or None."""
    if os.path.exists(report):
        os.remove(report)
    try:
        proc = subprocess.run([binary] + args + ["-o", report],
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("bench_bips: binary exceeded %d s" % RUN_TIMEOUT_S)
        return None
    sys.stderr.write(proc.stdout)
    # Exit 1 is a failed correctness check (the report says which); any
    # other non-zero status means the binary itself broke.
    if proc.returncode not in (0, 1) or not os.path.exists(report):
        log("bench_bips: binary exited with status %d" % proc.returncode)
        return None
    with open(report) as f:
        return json.load(f)


def wanted_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer"] if trace else spec["end_to_end"]


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    reports = [run_binary(binary, ["--workload", "all", "--smoke"],
                          os.path.join(BUILD, "smoke-%d.json" % i))
               for i in (1, 2)]
    if None in reports:
        return 1
    ok = True
    for w in reports[0]["workloads"]:
        if w is None:
            log("bench_bips smoke: a workload wrote no report")
            ok = False
            continue
        missing = [n for n in names if n not in w["metrics"]]
        if missing or not w["correct"]:
            log("bench_bips smoke: %s correct=%s missing=%s"
                % (w["workload"], w["correct"], missing))
            ok = False
    # A same-seed A/A comparison, one report per side: every metric read
    # from the deterministic runs must come out "same". Host-time metrics
    # of a world this small are noise, so they are not judged here.
    base, _ = compare.collect([compare.workload_reports(reports[0])])
    change, _ = compare.collect([compare.workload_reports(reports[1])])
    for w, m, mb, mc, v in compare.compare(spec, base, change):
        if m["name"] not in HOST_METRICS and v != "same":
            log("bench_bips smoke: A/A %s %s: %s -> %s is %s"
                % (w, m["name"], mb, mc, v))
            ok = False
    print("bench_bips smoke: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--bin", help="use this bench_bips binary instead of building")
    a = p.parse_args()
    if not a.smoke and a.workload is None:
        p.error("--workload is required")

    binary = a.bin or build()
    if binary is None:
        return 1
    if a.smoke:
        return smoke(binary)

    report = run_binary(binary,
                        ["--workload", a.workload, "--seed", str(a.seed),
                         "--reps", str(MIN_REPS), "--seconds",
                         str(a.seconds)],
                        os.path.join(BUILD, "result-%s.json" % a.workload))
    if report is None:
        return 1
    metrics = {}
    for m in wanted_metrics(a.trace):
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("bench_bips: binary did not report %s in %s"
                % (m["name"], m["unit"]))
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(report["runs"]),
                      "failed": int(report["runs_failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
