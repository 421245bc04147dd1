"""Where benchmark results go, and their deterministic JSON writing.

A benchmark run writes what it measured to :data:`FRESH_DIR` (git-ignored);
the committed baselines in :data:`RESULTS_DIR` change only through
``record_results.py``.  Shared by the benchmark conftest (``summary.json``)
and the self-debugging benchmark (``metrics_snapshot.json``): keys sorted,
floats rounded to a fixed number of significant digits, trailing newline —
so re-recording a result file produces a minimal diff (a metric line
changes only when the metric meaningfully changed, not because
``time.perf_counter`` churned its last eleven digits).
"""

from __future__ import annotations

import json
from pathlib import Path

#: The committed baselines ``check_perf_regression.py`` compares against.
RESULTS_DIR = Path(__file__).parent / "results"
#: The results of the current benchmark run (git-ignored).
FRESH_DIR = Path(__file__).parent / "fresh-results"


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
