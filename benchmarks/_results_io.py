"""Deterministic writing of ``benchmarks/results/*.json``.

Shared by the benchmark conftest (``summary.json``) and the self-debugging
benchmark (``metrics_snapshot.json``): keys sorted, floats rounded to a
fixed number of significant digits, trailing newline — so regenerating a
result file produces a minimal diff (a metric line changes only when the
metric meaningfully changed, not because ``time.perf_counter`` churned
its last eleven digits).
"""

from __future__ import annotations

import json
from pathlib import Path


def round_floats(value, significant_digits: int = 6):
    """Round every float in a JSON-like structure to N significant digits.

    Bools and ints pass through untouched; containers are rebuilt
    recursively.
    """
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, float):
        return float(f"{value:.{significant_digits}g}")
    if isinstance(value, dict):
        return {key: round_floats(item, significant_digits)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(item, significant_digits) for item in value]
    return value


def write_results_json(path: Path, payload: dict) -> None:
    """Canonical result-file write: sorted keys, rounded floats, newline."""
    path.write_text(json.dumps(round_floats(payload), indent=2,
                               sort_keys=True) + "\n")
