#!/usr/bin/env python3
"""Builds pmmbench from source and runs one workload.

    python3 pmmbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a SummaGen checkout. The benchmark is compiled into
.bench_build/pmmbench (CMake, Release). The run prints a report and, as
its last line, one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.

--trace 0 gives the end-to-end metrics. The T seconds are split over
PROCESSES fresh processes run one after another; each first times its
untimed warm-up call (set-up), then calls run_pmm in a closed loop.
pmm_wall_s is the median call over all processes, setup_s and
peak_rss_mib the median over processes, vmakespan_s the sum over the
workload's configurations of exec_time_s, which must agree bit for bit
between every call of a configuration.

--trace 1 gives the per-layer metrics from one process whose spans are
also written as Chrome-trace JSON under .bench_build/pmmbench/.

--small shrinks every size (the self-test uses it).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "pmmbench")
WORKLOADS = ("numeric-whole", "numeric-panelled", "modeled-cluster")
PROCESSES = 3
# Every run ends within 180 s; the build of a fresh checkout may take longer.
RUN_BUDGET_S = 170.0
BUILD_TIMEOUT_S = 850.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "pmmbench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "pmmbench")


def bench_env():
    """Pins the library's process-wide knobs: a tune cache the benchmark
    owns (absent, so every run uses the per-tier block-size defaults) and
    no forced SIMD tier or pack-cache size from the caller's shell."""
    env = dict(os.environ)
    for var in ("SUMMAGEN_FORCE_SCALAR", "SUMMAGEN_PACK_CACHE_MB"):
        env.pop(var, None)
    tune = os.path.join(BUILD_DIR, "tune-cache-absent.json")
    if os.path.exists(tune):
        os.remove(tune)
    env["SUMMAGEN_TUNE_CACHE"] = tune
    return env


def run_process(cmd, env, deadline):
    """Runs one benchmark process, echoes its report, returns its data."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited with %d" % (cmd[0], proc.returncode))
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def end_to_end(runs, problems):
    """Aggregates the processes of an untraced run."""
    walls = [w for r in runs for w in r["walls"]]
    vmakespan = {}
    for r in runs:
        for case, v in r["vmakespan"].items():
            if vmakespan.setdefault(case, v) != v:
                problems.append("configuration %s: virtual makespan %r differs "
                                "between processes (%r)"
                                % (case, v, vmakespan[case]))
    setups = [r["setup_s"] for r in runs]
    rss = [r["peak_rss_mib"] for r in runs]
    metrics = {
        "pmm_wall_s": (statistics.median(walls) if walls else 0.0, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (statistics.median(rss), "MiB"),
        "vmakespan_s": (sum(vmakespan.values()), "vs"),
    }
    notes = {
        "pmm_wall_s": "median of %d calls" % len(walls),
        "setup_s": "median of %d processes: %s" % (
            len(setups), ", ".join("%.4f" % s for s in setups)),
        "peak_rss_mib": "median of %d processes" % len(rss),
        "vmakespan_s": "sum over %d configurations" % len(vmakespan),
    }
    for name, (value, unit) in metrics.items():
        print("  %-14s %14.6g %-5s %s" % (name, value, unit, notes[name]))
    print("  %-14s %14.6g %-5s worst over the numeric calls"
          % ("max_abs_error", max(r["max_abs_error"] for r in runs), "abs"))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        log("pmmbench: %s" % err)
        return 1

    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    env = bench_env()
    nproc = 1 if args.trace else PROCESSES
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / nproc), "--trace", str(args.trace)]
    if args.small:
        cmd.append("--small")
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, "trace-%s-%d.json" % (args.workload, args.seed))]

    runs, problems = [], []
    try:
        for k in range(nproc):
            runs.append(run_process(cmd + ["--offset", str(k)], env, deadline))
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as err:
        problems.append(str(err))

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        problems += r["problems"]
    metrics = {}
    if len(runs) == nproc:
        metrics = runs[0]["metrics"] if args.trace else end_to_end(runs,
                                                                   problems)
    correct = failed == 0 and not problems
    if problems and failed == 0:
        failed = 1
    print("  %-14s %14.6g %-5s %d of %d calls; %.1f s"
          % ("failed_frac", failed / max(1, attempted), "ratio", failed,
             attempted, time.monotonic() - start))
    for p in problems:
        print("  FAILED: " + p)
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
