"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs the same workload twice in one invocation, untraced and
then traced, each pass for half of ``--seconds``, and reports the per-layer
metrics plus the tracing overhead (the difference between the two passes).
Workload parameters come from ``perfbench/spec.json``.  A detail line
(per-phase counts and the workload's own metric names) precedes the result,
which is always the last line of standard output.  Span files are written
under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "spec.json")
OUT_DIR = ".perfbench-out"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "capacity_per_s": "1/s",
    "answer_quality_pct": "%",
}

PER_LAYER_UNITS = {
    "busy_s": "s", "p50_ms": "ms", "wire_ms_p50": "ms", "late_ms_max": "ms",
    "overhead_ms": "ms", "overhead_pct": "%", "named_share": "ratio",
    "hit_ratio": "ratio", "coalesced_ratio": "ratio",
    "trace_reuse_ratio": "ratio",
}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its last name component."""
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _metric_block(values: dict, units) -> dict:
    return {name: {"value": float(value), "unit": units(name)}
            for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, source)

    spec = load_spec()
    workload = spec["workloads"].get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(spec['workloads'])}", file=sys.stderr)
        return 2

    if args.workload.startswith("debug"):
        import debug_bench as bench
    else:
        import serve_bench as bench
    # A traced invocation makes two passes in the time of one.
    seconds = args.seconds / 2 if args.trace else args.seconds
    result = bench.run(args.workload, workload, seed=args.seed,
                       seconds=seconds, trace=bool(args.trace),
                       out_dir=OUT_DIR)

    print(json.dumps({"detail": result["detail"]}, sort_keys=True))
    if args.trace:
        # Layers a workload never reaches report zero work.
        layers = {name: result["per_layer"].get(name, 0.0)
                  for name in spec["per_layer"]}
        metrics = _metric_block(layers, per_layer_unit)
    else:
        metrics = _metric_block(result["end_to_end"], END_TO_END.__getitem__)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
