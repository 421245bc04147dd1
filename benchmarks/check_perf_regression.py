"""CI perf-regression gate over ``benchmarks/results/summary.json``.

The benchmark suite records every gate's numbers into
``benchmarks/fresh-results/summary.json``; this script compares that
fresh summary against the committed baseline and **fails on regression**:
any tracked metric that got worse by more than the tolerance (default
±20%) exits nonzero with a report.

Only *relative* metrics are compared — speedups and coalescing ratios,
which divide two timings taken on the same runner in the same run and so
transfer between machines.  Absolute timings (``*_ms``, ``*_seconds``,
``throughput_qps``) vary with runner hardware and load and are reported
for context only.

Usage (what ``.github/workflows/ci.yml`` runs)::

    pytest benchmarks/ ...               # writes benchmarks/fresh-results/
    python benchmarks/check_perf_regression.py \
        --baseline benchmarks/results/summary.json \
        --fresh benchmarks/fresh-results/summary.json

The run never touches the committed baseline; ``record_results.py``
re-records it on purpose.

A tracked metric missing from the fresh summary (a perf gate silently
dropped) is itself a failure; experiments new in the fresh summary are
fine and simply establish their baseline on the next commit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Relative (runner-independent) metric keys, all higher-is-better.
#: ``cache_hit_rate`` is a workload-determined fraction, not a timing, so
#: it transfers between runners like the speedup ratios do;
#: ``cold_start_speedup`` / ``recovery_speedup`` divide the refit+replay
#: restart path by the snapshot-restore path taken on the same runner;
#: ``refresh_availability`` / ``refresh_capacity_fraction`` are fractions
#: of probes answered and of fleet capacity retained during a rolling
#: refresh — workload-determined, so they transfer between runners too.
TRACKED_KEYS = ("speedup", "median_speedup", "coalesced_ratio",
                "cache_hit_rate", "cold_start_speedup", "recovery_speedup",
                "refresh_availability", "refresh_capacity_fraction",
                "gateway_availability", "self_debug_p99_improvement")
#: Tracked keys where *lower* is better: per-call wire overhead and the
#: tracing-enabled / tracing-off throughput ratio.  These regress when
#: the fresh value rises above ``baseline * (1 + tolerance)``.
TRACKED_LOWER_KEYS = ("gateway_overhead_ms", "tracing_overhead_ratio")
#: Noise floors for lower-is-better keys: a fresh value under its floor is
#: never a regression, whatever the ratio to the baseline.  Sub-millisecond
#: per-call overheads jitter far more run-to-run than the timing *ratios*
#: tracked above (a 0.2 ms -> 0.5 ms wobble is scheduler noise, not a
#: regression), so the ratio test only engages above the floor; the
#: benchmark's own hard bound still caps the absolute value.  The tracing
#: ratio hovers around 1.0 with scheduler jitter either side, so its
#: floor sits at the benchmark's own 1.05 gate — below that the run
#: already proved tracing near-free.
LOWER_KEY_NOISE_FLOORS = {"gateway_overhead_ms": 5.0,
                          "tracing_overhead_ratio": 1.05}
#: Saturation floors for higher-is-better keys: a fresh value at or above
#: its floor is never a regression, whatever the ratio to the baseline.
#: ``self_debug_p99_improvement`` divides the misconfigured deployment's
#: replayed p99 (dominated by a 50 ms dispatcher window, so it scales
#: with queue depth and workload size) by the recommended deployment's —
#: it lands anywhere from ~15x to ~45x depending on the QUICK trim and
#: runner, all of it far beyond the benchmark's own 1.3x acceptance
#: gate.  The ratio test only engages below the floor, where the margin
#: over the hard gate is thin enough for a 20% slide to matter.
HIGHER_KEY_SATURATION_FLOORS = {"self_debug_p99_improvement": 5.0}
DEFAULT_TOLERANCE = 0.20


def tracked_metrics(summary: dict) -> dict[str, float]:
    """``experiment.key -> value`` for every tracked metric in a summary."""
    metrics: dict[str, float] = {}
    for experiment, payload in summary.items():
        if not isinstance(payload, dict):
            continue
        for key in TRACKED_KEYS + TRACKED_LOWER_KEYS:
            value = payload.get(key)
            if isinstance(value, (int, float)):
                metrics[f"{experiment}.{key}"] = float(value)
    return metrics


def compare(baseline: dict, fresh: dict,
            tolerance: float = DEFAULT_TOLERANCE
            ) -> tuple[list[str], list[str]]:
    """Compare two summaries; return ``(regressions, report_lines)``.

    A higher-is-better metric regresses when its fresh value falls below
    ``baseline * (1 - tolerance)`` *and* its saturation floor (see
    :data:`HIGHER_KEY_SATURATION_FLOORS`); a lower-is-better metric (see
    :data:`TRACKED_LOWER_KEYS`) when it rises above
    ``baseline * (1 + tolerance)`` *and* its noise floor.  A tracked
    baseline metric absent from the fresh summary is also a regression
    (the gate disappeared).
    """
    baseline_metrics = tracked_metrics(baseline)
    fresh_metrics = tracked_metrics(fresh)
    regressions: list[str] = []
    report: list[str] = []
    for name in sorted(baseline_metrics):
        old = baseline_metrics[name]
        new = fresh_metrics.get(name)
        if new is None:
            regressions.append(f"{name}: present in baseline ({old:.3g}) "
                               "but missing from the fresh results")
            continue
        key = name.rsplit(".", 1)[-1]
        if key in TRACKED_LOWER_KEYS:
            ceiling = max(old * (1.0 + tolerance),
                          LOWER_KEY_NOISE_FLOORS.get(key, 0.0))
            verdict = "ok" if new <= ceiling else "REGRESSION"
            report.append(f"  {verdict:>10}  {name}: {old:.3g} -> "
                          f"{new:.3g} (ceiling {ceiling:.3g})")
            if new > ceiling:
                regressions.append(
                    f"{name}: {old:.3g} -> {new:.3g}, above the "
                    f"{tolerance:.0%} tolerance ceiling {ceiling:.3g}")
            continue
        floor = old * (1.0 - tolerance)
        saturation = HIGHER_KEY_SATURATION_FLOORS.get(key)
        if saturation is not None:
            floor = min(floor, saturation)
        verdict = "ok" if new >= floor else "REGRESSION"
        report.append(f"  {verdict:>10}  {name}: {old:.3g} -> {new:.3g} "
                      f"(floor {floor:.3g})")
        if new < floor:
            regressions.append(
                f"{name}: {old:.3g} -> {new:.3g}, below the "
                f"{tolerance:.0%} tolerance floor {floor:.3g}")
    for name in sorted(set(fresh_metrics) - set(baseline_metrics)):
        report.append(f"  {'new':>10}  {name}: {fresh_metrics[name]:.3g} "
                      "(no baseline yet)")
    return regressions, report


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, type=Path,
                        help="committed summary.json snapshot")
    parser.add_argument("--fresh", required=True, type=Path,
                        help="summary.json produced by this run")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed relative slowdown (default 0.20)")
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())
    regressions, report = compare(baseline, fresh,
                                  tolerance=args.tolerance)
    print(f"perf-regression gate: {len(tracked_metrics(baseline))} tracked "
          f"metrics, tolerance {args.tolerance:.0%}")
    for line in report:
        print(line)
    if regressions:
        print("\nPERF REGRESSIONS:")
        for regression in regressions:
            print(f"  - {regression}")
        return 1
    print("\nno perf regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
