#!/usr/bin/env python3
"""Gate micro-benchmark regressions against a committed baseline.

Usage:
    tools/compare_bench.py BASELINE.json CURRENT.json [--max-ratio 1.3]

Both files are Google-Benchmark JSON (micro_dgemm --json FILE). For every
benchmark present in BOTH files the script compares throughput
(items_per_second, i.e. FLOP/s for the DGEMM benches) and fails if

    baseline_items_per_second / current_items_per_second > max_ratio

for any benchmark — i.e. the current build is more than `max_ratio` slower
than the recorded baseline. NEW benchmarks (present only in the current
run) are reported but never fail the gate, so adding benches does not
require regenerating the baseline in the same commit. MISSING benchmarks
(present only in the baseline) are a hard failure: a silently-skipped
baseline is how a renamed or dropped bench escapes the gate while looking
green. Pass --allow-missing when removing a bench is intended. A
baseline-only name whose tier-stripped family is still measured (e.g. the
AVX2 variant on a machine that only ran the scalar tier) counts as
covered, not missing.

Benchmarks without items_per_second fall back to comparing real_time
(higher is worse), with the same ratio threshold.

Counter metrics: benches may export extra numeric counters on a row
(speedup_vs_classical from ablation_fastmm, alloc counters from
micro_dgemm). --metric NAME[:MAX_RATIO][:higher] gates one such counter
on every benchmark that exports it in BOTH files, each with its own
regression ratio (defaulting to --max-ratio). The default direction is
lower-is-better (latencies, byte counts): current/baseline above the
ratio fails. A trailing ":higher" flips the direction for
throughput-style counters: baseline/current above the ratio fails. A
zero baseline gates exactness (any nonzero current value fails — the
virtual-clock benches are deterministic, so a baseline of zero means
zero is reproducible). Rows missing the counter in either file are
skipped with a note, so mixed-schema files stay comparable.

Example (the fast-MM gate):
    tools/compare_bench.py bench/BENCH_fastmm.json current.json \
        --max-ratio 1.3 --metric speedup_vs_classical:1.05:higher

Repetitions: when a file was produced with --repeats (benchmark
repetitions), the per-repetition rows are noisy; the gate uses the
`_median` aggregate rows instead, keyed by the benchmark's run_name.
Files mixing styles are fine — a median row always wins over the
iteration rows of the same benchmark, and single-run files behave as
before.

Per-kernel baselines: benchmark families may grow per-variant entries
(e.g. BM_GemmPackedTierAvx2/1024 next to BM_GemmPacked/1024). A current
entry with no exact baseline match falls back to its family baseline —
the name with the `TierX` token stripped — so adding tiered entries does
not require regenerating the old baseline schema; tiered entries are
then gated against the family's recorded throughput. The fast-MM
ablation rows (BM_FastMMStrassen/2048 etc.) fall back the same way to a
BM_FastMM/2048 family baseline with the kind suffix stripped.

`--self-test` runs the built-in unit checks of the name-matching helpers
(family stripping, baseline fallback, counter directions) and exits
without reading any files; CI runs it before the real gates.

Allocation gate: benchmarks exporting the `alloc_bytes_per_iter` counter
(micro_dgemm does, via the data-plane accounting) are additionally checked
against the baseline's counter. The current build fails if it allocates
more than --max-alloc-ratio times the baseline's bytes per iteration, with
an absolute floor of --alloc-floor bytes. The floor absorbs residual
BufferPool size-class misses: the pool caches by observed *concurrent*
high-water per class, so a rerun of a single-iteration bench can legally
miss once (a few MiB) even though its baseline recorded zero. A genuine
per-call allocation regression (staging whole operands again) shows up as
tens of MiB per iteration and still trips the gate; the exact steady-state
property is enforced deterministically by tests/core/alloc_test.cpp.

Exit code 0 = within budget, 1 = regression, 2 = usage/parse error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys


def load_benchmarks(path: str) -> dict[str, dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    out: dict[str, dict] = {}
    medians: set[str] = set()
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            # Prefer the median aggregate of a repeated run; ignore
            # mean/stddev/cv rows.
            if bench.get("aggregate_name") != "median":
                continue
            name = bench.get("run_name", bench["name"])
            out[name] = bench
            medians.add(name)
            continue
        # Per-repetition (or single-run) row: never overrides a median.
        name = bench.get("run_name", bench["name"])
        if name not in medians:
            out[name] = bench
    if not out:
        print(f"error: no benchmarks found in {path}", file=sys.stderr)
        sys.exit(2)
    return out


def family_name(name: str) -> str:
    """Strip per-variant tokens: the `TierX` token of the packed-GEMM
    entries (BM_GemmPackedTierAvx2/1024 -> BM_GemmPacked/1024) and the
    fast-MM kind suffix of the ablation_fastmm entries
    (BM_FastMMStrassen/2048 -> BM_FastMM/2048), so variant rows fall back
    to a family baseline and a forced-classical run still covers the
    family."""
    name = re.sub(r"Tier[A-Za-z0-9]+", "", name)
    return re.sub(
        r"^(BM_FastMM)(?:Classical|Strassen|S223|Auto)", r"\1", name
    )


def baseline_for(name: str, base: dict[str, dict]) -> tuple[str, dict] | None:
    """Exact baseline entry, else the family baseline for tiered entries."""
    if name in base:
        return name, base[name]
    family = family_name(name)
    if family != name and family in base:
        return family, base[family]
    return None


def parse_metric_spec(spec: str, default_ratio: float) -> tuple[str, float, bool]:
    """Parse NAME[:MAX_RATIO][:higher|lower] into (name, ratio, higher)."""
    parts = spec.split(":")
    name = parts[0]
    ratio = default_ratio
    higher = False
    for part in parts[1:]:
        if part == "higher":
            higher = True
        elif part == "lower":
            higher = False
        else:
            try:
                ratio = float(part)
            except ValueError:
                print(f"error: bad --metric spec '{spec}'", file=sys.stderr)
                sys.exit(2)
    if not name or ratio <= 0:
        print(f"error: bad --metric spec '{spec}'", file=sys.stderr)
        sys.exit(2)
    return name, ratio, higher


def metric_slowdown(b_val: float, c_val: float, higher: bool) -> float:
    """Regression factor for one counter (>1 == worse than baseline).
    Zero baselines gate exactness: equal-zero is 1.0, any deviation inf."""
    worse, better = (b_val, c_val) if higher else (c_val, b_val)
    if better == 0:
        return 1.0 if worse == 0 else float("inf")
    return worse / better


def slowdown(base: dict, cur: dict) -> float:
    """Return how many times slower `cur` is than `base` (>1 == regression)."""
    b_ips, c_ips = base.get("items_per_second"), cur.get("items_per_second")
    if b_ips and c_ips:
        return b_ips / c_ips
    return cur["real_time"] / base["real_time"]


def self_test() -> int:
    """Unit-check the matching helpers (run in CI before the real gates, so
    a fallback regression fails loudly instead of silently skipping rows)."""
    checks = [
        # Tier stripping (the packed-GEMM family fallback).
        (family_name("BM_GemmPackedTierAvx2/1024"), "BM_GemmPacked/1024"),
        (family_name("BM_GemmPacked/1024"), "BM_GemmPacked/1024"),
        # Fast-MM kind stripping.
        (family_name("BM_FastMMStrassen/2048"), "BM_FastMM/2048"),
        (family_name("BM_FastMMS223/512"), "BM_FastMM/512"),
        (family_name("BM_FastMMAuto/1024"), "BM_FastMM/1024"),
        (family_name("BM_FastMMClassical/2048"), "BM_FastMM/2048"),
        # Names that must NOT be rewritten.
        (family_name("BM_FastMM/2048"), "BM_FastMM/2048"),
        (family_name("BM_Barrier/8"), "BM_Barrier/8"),
    ]
    failures = [f"family_name: {got!r} != {want!r}" for got, want in checks
                if got != want]

    base = {
        "BM_FastMM/2048": {"real_time": 1.0},
        "BM_GemmPacked/1024": {"real_time": 2.0},
    }
    resolved = baseline_for("BM_FastMMStrassen/2048", base)
    if resolved is None or resolved[0] != "BM_FastMM/2048":
        failures.append("baseline_for: fast-MM family fallback missed")
    resolved = baseline_for("BM_GemmPackedTierSse2/1024", base)
    if resolved is None or resolved[0] != "BM_GemmPacked/1024":
        failures.append("baseline_for: tier family fallback missed")
    if baseline_for("BM_Unrelated/64", base) is not None:
        failures.append("baseline_for: matched an unrelated name")

    if metric_slowdown(2.0, 1.0, higher=True) != 2.0:
        failures.append("metric_slowdown: higher-is-better direction wrong")
    if metric_slowdown(1.0, 2.0, higher=False) != 2.0:
        failures.append("metric_slowdown: lower-is-better direction wrong")
    if metric_slowdown(0.0, 0.5, higher=False) != float("inf"):
        failures.append("metric_slowdown: zero baseline must gate exactness")
    if metric_slowdown(0.0, 0.0, higher=False) != 1.0:
        failures.append("metric_slowdown: zero == zero must pass")

    for line in failures:
        print(f"  [FAIL] {line}", file=sys.stderr)
    if failures:
        print(f"self-test: {len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("self-test: all checks passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the built-in matching unit checks and exit (no files read)",
    )
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=1.3,
        help="fail if current is more than this factor slower (default 1.3)",
    )
    parser.add_argument(
        "--max-alloc-ratio",
        type=float,
        default=1.05,
        help="fail if alloc_bytes_per_iter exceeds this factor of the "
        "baseline counter (default 1.05; allocation is deterministic)",
    )
    parser.add_argument(
        "--metric",
        action="append",
        default=[],
        metavar="NAME[:MAX_RATIO][:higher|lower]",
        help="additionally gate this counter on every benchmark exporting "
        "it in both files; MAX_RATIO defaults to --max-ratio, direction "
        "defaults to lower-is-better (append ':higher' for throughput-style "
        "counters); repeatable",
    )
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="do not fail when a baseline benchmark is absent from the "
        "current run (use when intentionally removing a bench)",
    )
    parser.add_argument(
        "--alloc-floor",
        type=float,
        default=8.0 * 1024 * 1024,
        help="ignore alloc regressions below this many bytes/iter "
        "(default 8 MiB: above any residual pool-class miss, far below "
        "per-call operand staging)",
    )
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.baseline is None or args.current is None:
        parser.error("baseline and current are required unless --self-test")

    base = load_benchmarks(args.baseline)
    cur = load_benchmarks(args.current)
    metrics = [parse_metric_spec(spec, args.max_ratio) for spec in args.metric]

    failures = []
    metric_failures = []
    alloc_failures = []
    matched_baselines = set()
    unmatched_new = []
    for name in sorted(cur):
        resolved = baseline_for(name, base)
        if resolved is None:
            unmatched_new.append(name)
            continue
        base_name, base_entry = resolved
        matched_baselines.add(base_name)
        label = name if base_name == name else f"{name} (vs {base_name})"
        ratio = slowdown(base_entry, cur[name])
        status = "FAIL" if ratio > args.max_ratio else "ok"
        print(f"  [{status}] {label}: {ratio:.2f}x baseline time")
        if ratio > args.max_ratio:
            failures.append((label, ratio))
        for metric, metric_ratio, higher in metrics:
            b_val = base_entry.get(metric)
            c_val = cur[name].get(metric)
            if b_val is None or c_val is None:
                if b_val is not None or c_val is not None:
                    side = "baseline" if b_val is None else "current"
                    print(f"    ({metric}: absent from {side}, skipped)")
                continue
            m_ratio = metric_slowdown(b_val, c_val, higher)
            m_status = "FAIL" if m_ratio > metric_ratio else "ok"
            direction = "higher-better" if higher else "lower-better"
            print(
                f"    [{m_status}] {metric} ({direction}): "
                f"{b_val:g} -> {c_val:g} ({m_ratio:.2f}x, max "
                f"{metric_ratio:.2f}x)"
            )
            if m_ratio > metric_ratio:
                metric_failures.append((label, metric, b_val, c_val, m_ratio))
        b_alloc = base_entry.get("alloc_bytes_per_iter")
        c_alloc = cur[name].get("alloc_bytes_per_iter")
        if b_alloc is not None and c_alloc is not None:
            budget = max(b_alloc * args.max_alloc_ratio, args.alloc_floor)
            if c_alloc > budget:
                print(
                    f"  [FAIL] {label}: allocates {c_alloc:.0f} B/iter "
                    f"(baseline {b_alloc:.0f}, budget {budget:.0f})"
                )
                alloc_failures.append((label, b_alloc, c_alloc))
    current_families = {family_name(name) for name in cur}
    missing = []
    for name in sorted(set(base) - matched_baselines):
        if family_name(name) in current_families:
            # A tier variant of a family the current run did measure (e.g.
            # the forced-scalar job never runs the AVX2 entries).
            print(f"  (baseline-only, family covered) {name}")
        elif args.allow_missing:
            print(f"  (baseline-only, allowed by --allow-missing) {name}")
        else:
            print(f"  [FAIL] {name}: in baseline but missing from current run")
            missing.append(name)
    for name in unmatched_new:
        print(f"  (new, no baseline) {name}")

    if failures:
        print(
            f"\n{len(failures)} benchmark(s) regressed beyond "
            f"{args.max_ratio:.2f}x:",
            file=sys.stderr,
        )
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x", file=sys.stderr)
    if metric_failures:
        print(
            f"\n{len(metric_failures)} counter metric(s) regressed:",
            file=sys.stderr,
        )
        for label, metric, b_val, c_val, m_ratio in metric_failures:
            print(
                f"  {label} {metric}: {b_val:g} -> {c_val:g} "
                f"({m_ratio:.2f}x)",
                file=sys.stderr,
            )
    if alloc_failures:
        print(
            f"\n{len(alloc_failures)} benchmark(s) allocate beyond "
            f"{args.max_alloc_ratio:.2f}x the baseline bytes/iter:",
            file=sys.stderr,
        )
        for name, b_alloc, c_alloc in alloc_failures:
            print(
                f"  {name}: {b_alloc:.0f} -> {c_alloc:.0f} B/iter",
                file=sys.stderr,
            )
    if missing:
        print(
            f"\n{len(missing)} baseline benchmark(s) missing from the "
            f"current run (pass --allow-missing if intended):",
            file=sys.stderr,
        )
        for name in missing:
            print(f"  {name}", file=sys.stderr)
    if failures or metric_failures or alloc_failures or missing:
        return 1
    print(
        f"\nall baseline benchmarks covered and within "
        f"{args.max_ratio:.2f}x (alloc within {args.max_alloc_ratio:.2f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
