#!/usr/bin/env python3
"""Self-test of the benchmark at reduced sizes (run.py --small).

    python3 pmmbench/selftest.py

Run from the root of a SummaGen checkout. For every workload it checks
that the untraced and the traced run each print every metric named in
BENCHMARK.json, with its unit, both in the report and in the last JSON
line; that every call verifies; that the same seed reproduces the
virtual makespan bit for bit while a second seed also passes; and that
the modeled cluster bypasses the kernel and the verifier
(blas.kernel_s == 0 and core.verify_s == 0) while the numeric workloads
do not. Exits 1 on the first failed check.
"""
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and lines, "%s exited with %d"
          % (" ".join(cmd[1:]), proc.returncode))
    return lines[:-1], json.loads(lines[-1])


def check(cond, what):
    if not cond:
        print("FAIL: " + what)
        sys.exit(1)


def check_result(label, report, result, spec):
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          "%s: result keys %s" % (label, sorted(result)))
    check(result["correct"] and result["failed"] == 0 and
          result["attempted"] >= 1, "%s: %s" % (label, result))
    metrics = result["metrics"]
    check(sorted(metrics) == sorted(m["name"] for m in spec),
          "%s: metrics %s" % (label, sorted(metrics)))
    for m in spec:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"], "%s: %s unit %s, expected %s"
              % (label, m["name"], got["unit"], m["unit"]))
        check(isinstance(got["value"], (int, float)),
              "%s: %s value %r" % (label, m["name"], got["value"]))
        check(any(line.split()[:1] == [m["name"]] and m["unit"] in
                  line.split()[2:3] for line in report),
              "%s: report lacks %s with unit %s"
              % (label, m["name"], m["unit"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (w["name"] for w in bench["workloads"]):
        report, first = run(w, 1, 0)
        check_result(w + " trace 0", report, first, bench["end_to_end"])
        _, again = run(w, 1, 0)
        check(again["correct"], w + ": the repeated run failed")
        check(again["metrics"]["vmakespan_s"]["value"] ==
              first["metrics"]["vmakespan_s"]["value"],
              w + ": the same seed gave another virtual makespan")
        report, second = run(w, 2, 0)
        check_result(w + " second seed", report, second, bench["end_to_end"])

        report, traced = run(w, 1, 1)
        check_result(w + " trace 1", report, traced, bench["per_layer"])
        layers = traced["metrics"]
        bypassed = w == "modeled-cluster"
        for name in ("blas.kernel_s", "core.verify_s"):
            value = layers[name]["value"]
            check(value == 0 if bypassed else value > 0,
                  "%s: %s = %r" % (w, name, value))
        print("ok %s" % w)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
