#!/usr/bin/env python3
"""CI bench-guard: diff a BENCH_*.json report against its checked-in baseline.

Compares per-benchmark times from a fresh bench/micro_kernels run (see
obs/bench_report.h for the schema) against bench/baselines/. Raw nanoseconds
are meaningless across machines, so each benchmark is normalized by the
host's speed as the calibration benchmarks of the *same* report read it:
what is guarded is

    (current(benchmark) / baseline(benchmark)) / speed,
    speed = median over calibration rows c of current(c) / baseline(c)

which cancels the host's overall speed. A regression in one kernel relative
to the others (the usual way a silent slowdown lands) moves its ratio; a
uniformly slower machine does not. The median over several rows keeps one
noisy calibration sample from moving every verdict; a single row (as the
scaling guards pass) is its own median.

Usage:
    bench_guard.py --current BENCH_micro_kernels.json \
        --baseline bench/baselines/BENCH_micro_kernels.json \
        [--tolerance 0.5] [--calibration ROW [ROW ...]] [--update]

Exit status: 0 when every benchmark is within tolerance (or --update), 1 on
any regression, missing benchmark, or schema violation.
"""

import argparse
import json
import shutil
import statistics
import sys

DEFAULT_CALIBRATION = [
    "BM_DenseMatMul/16",
    "BM_DenseMatMul/32",
    "BM_DenseMatMul/64",
    "BM_SparseMatMulDense/32",
    "BM_SparseMatMulDense/128",
]

REQUIRED_TOP_LEVEL = [
    "schema_version",
    "name",
    "git_sha",
    "created_unix",
    "config",
    "wall_clock_seconds",
    "results",
]


def load_report(path):
    with open(path) as f:
        report = json.load(f)
    missing = [key for key in REQUIRED_TOP_LEVEL if key not in report]
    if missing:
        raise ValueError(f"{path}: missing schema keys {missing}")
    if report["schema_version"] != 1:
        raise ValueError(
            f"{path}: unsupported schema_version {report['schema_version']}")
    return report


def benchmark_times(report, path):
    """benchmark name -> real ns/iter, from the results array."""
    times = {}
    for row in report["results"]:
        if "benchmark" not in row or "real_ns_per_iter" not in row:
            raise ValueError(f"{path}: malformed result row {row}")
        times[row["benchmark"]] = float(row["real_ns_per_iter"])
    if not times:
        raise ValueError(f"{path}: no benchmark results")
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True,
                        help="freshly produced BENCH_*.json")
    parser.add_argument("--baseline", required=True,
                        help="checked-in baseline BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed relative increase of the normalized "
                             "ratio (0.5 = 50%%)")
    parser.add_argument("--calibration", nargs="+",
                        default=DEFAULT_CALIBRATION,
                        help="benchmarks whose median current/baseline "
                             "ratio normalizes out machine speed")
    parser.add_argument("--update", action="store_true",
                        help="refresh the baseline from --current and exit")
    parser.add_argument("--allow-missing", action="store_true",
                        help="skip baseline benchmarks absent from the "
                             "current run instead of failing (for CI runs "
                             "covering a reduced thread/worker list)")
    args = parser.parse_args()

    try:
        current = load_report(args.current)
        current_times = benchmark_times(current, args.current)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"bench_guard: bad current report: {err}", file=sys.stderr)
        return 1

    if args.update:
        shutil.copyfile(args.current, args.baseline)
        print(f"bench_guard: baseline {args.baseline} refreshed from "
              f"{args.current} (git_sha {current['git_sha']})")
        return 0

    try:
        baseline = load_report(args.baseline)
        baseline_times = benchmark_times(baseline, args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"bench_guard: bad baseline: {err}", file=sys.stderr)
        return 1

    for report, times in ((args.current, current_times),
                          (args.baseline, baseline_times)):
        absent = [name for name in args.calibration if name not in times]
        if absent:
            print(f"bench_guard: calibration benchmarks {absent} "
                  f"missing from {report}", file=sys.stderr)
            return 1

    missing = sorted(set(baseline_times) - set(current_times))
    if missing:
        if not args.allow_missing:
            print(f"bench_guard: benchmarks missing from current run: "
                  f"{missing}", file=sys.stderr)
            return 1
        print(f"bench_guard: skipping baseline benchmarks absent from "
              f"current run: {missing}")
        for name in missing:
            del baseline_times[name]
    added = sorted(set(current_times) - set(baseline_times))
    if added:
        print(f"bench_guard: NOTE: benchmarks not in baseline (run with "
              f"--update to include): {added}")

    for name in args.calibration:
        print(f"bench_guard: calibration {name}: "
              f"current {current_times[name]:.0f} ns, "
              f"baseline {baseline_times[name]:.0f} ns, "
              f"speed {current_times[name] / baseline_times[name]:.3f}")
    speed = statistics.median(current_times[name] / baseline_times[name]
                              for name in args.calibration)
    print(f"bench_guard: host speed (median current/baseline) {speed:.3f}")
    print(f"{'benchmark':<34} {'base_ns':>12} {'cur_ns':>12} "
          f"{'delta':>8}  verdict")

    regressions = []
    for name in sorted(baseline_times):
        base_ns = baseline_times[name]
        cur_ns = current_times[name]
        delta = cur_ns / base_ns / speed - 1.0 if base_ns > 0 else 0.0
        ok = delta <= args.tolerance
        print(f"{name:<34} {base_ns:>12.0f} {cur_ns:>12.0f} "
              f"{delta:>+7.0%}  {'ok' if ok else 'REGRESSION'}")
        if not ok:
            regressions.append((name, delta))

    if regressions:
        print(f"\nbench_guard: {len(regressions)} regression(s) beyond "
              f"{args.tolerance:.0%} tolerance:", file=sys.stderr)
        for name, delta in regressions:
            print(f"  {name}: +{delta:.0%} vs baseline", file=sys.stderr)
        return 1
    print(f"\nbench_guard: all {len(baseline_times)} benchmarks within "
          f"{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
