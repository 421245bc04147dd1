"""Re-record the committed benchmark baselines from a fresh run.

A benchmark run writes only to ``benchmarks/fresh-results/`` (git-ignored),
so running the suite never changes a tracked file.  This script is the one
step that does::

    PYTHONPATH=src python -m pytest benchmarks/ -q
    python benchmarks/record_results.py

Each experiment in the fresh ``summary.json`` replaces its entry in the
committed ``benchmarks/results/summary.json`` (experiments the run did not
cover keep theirs), and the fresh self-debugging trace and metrics snapshot
replace the committed ones.  Record from a run on a quiet machine: the
committed summary is the floor ``check_perf_regression.py`` holds every
later run to.
"""

from __future__ import annotations

import json
import shutil

from _results_io import FRESH_DIR, RESULTS_DIR, write_results_json

#: Artifacts copied over verbatim when the fresh run produced them.
ARTIFACTS = ("metrics_snapshot.json", "self_debug_trace.jsonl")


def main() -> int:
    fresh = FRESH_DIR / "summary.json"
    if not fresh.exists():
        print(f"no fresh results at {fresh}; run the benchmarks first")
        return 1
    committed = RESULTS_DIR / "summary.json"
    summary = json.loads(committed.read_text()) if committed.exists() else {}
    recorded = json.loads(fresh.read_text())
    summary.update(recorded)
    write_results_json(committed, summary)
    copied = [name for name in ARTIFACTS if (FRESH_DIR / name).exists()]
    for name in copied:
        shutil.copyfile(FRESH_DIR / name, RESULTS_DIR / name)
    print(f"re-recorded {len(recorded)} experiments"
          + (f" and {', '.join(copied)}" if copied else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
