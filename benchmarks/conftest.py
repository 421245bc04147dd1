"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper on the simulated
substrate, asserts its qualitative claim, prints the paper-style rows (visible
with ``pytest benchmarks/ --benchmark-only -s``) and records the numbers in
``benchmarks/fresh-results/summary.json``, which each session starts afresh
and git ignores.  The committed baseline ``benchmarks/results/summary.json``
changes only when ``benchmarks/record_results.py`` re-records it.

Result files are written **deterministically** so reruns produce minimal
diffs: keys are sorted, floats are rounded to six significant digits
(``_results_io.round_floats`` — raw ``time.perf_counter`` deltas would
otherwise churn all 17 digits on every run), and the file ends with a
newline.  The incremental-relearn trajectory file additionally treats its
per-system timing histories as append-only (see
``test_incremental_relearn._record``).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).parent

sys.path.insert(0, str(BENCHMARKS_DIR))  # so tests can `import _results_io`
from _results_io import FRESH_DIR, write_results_json  # noqa: E402


def pytest_collection_modifyitems(config, items):
    """Mark every test under benchmarks/ with the ``benchmark`` marker.

    This lets the CI smoke job (and developers) deselect the whole paper
    benchmark suite with ``pytest -m "not benchmark"`` without duplicating
    markers in each file.
    """
    for item in items:
        try:
            in_benchmarks = Path(str(item.fspath)).resolve().is_relative_to(
                BENCHMARKS_DIR.resolve())
        except (OSError, ValueError):  # pragma: no cover - defensive
            in_benchmarks = False
        if in_benchmarks:
            item.add_marker(pytest.mark.benchmark)


@pytest.fixture(scope="session")
def campaign_workers() -> int:
    """Worker-pool size for parallel campaign benchmarks.

    Campaign cells are dominated by (simulated) measurement latency rather
    than CPU, so the default over-subscribes the cores; override with the
    ``CAMPAIGN_WORKERS`` environment variable.
    """
    return max(int(os.environ.get("CAMPAIGN_WORKERS", "8")), 1)


@pytest.fixture(scope="session")
def results_recorder():
    """Session-wide recorder that persists benchmark outputs as JSON.

    The fresh summary holds only this session's experiments, so a perf
    gate that stopped recording is missing from it and fails
    ``check_perf_regression.py``.
    """
    FRESH_DIR.mkdir(exist_ok=True)
    path = FRESH_DIR / "summary.json"
    store: dict[str, object] = {}

    def record(experiment: str, payload: object) -> None:
        store[experiment] = payload
        write_results_json(path, store)

    yield record
    write_results_json(path, store)
