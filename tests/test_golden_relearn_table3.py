"""Golden relearn-sequence fixture at Table 3's largest scale.

The companion of ``test_golden_relearn.py`` (SQLite 34 x 19, conditioning
sets up to size 2) at the scale and cap the paper workloads run: SQLite on
Xavier with 130 options and 80 events, ``max_condition_size=1``.  Every CI
test of a relearn at this cap is a marginal (level 0) or a singleton
conditioning-set test (level 1 and Possible-D-Sep pruning), so this fixture
pins the order and the outcome of those decisions: for every
``learn``/``update`` call the digest of the PAG, the separating sets and the
number of CI tests performed, and after the last call the CI-decision cache
counters (all zero: no decision with at most one conditioning column is
cached).  If a change is meant to alter the learned graphs, regenerate
with::

    PYTHONPATH=src python tests/test_golden_relearn_table3.py --regenerate
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
from test_golden_relearn import _record

from repro.discovery import pipeline
from repro.discovery.pipeline import CausalModelLearner
from repro.stats.dataset import Dataset
from repro.systems.registry import get_system

FIXTURE = (Path(__file__).parent / "fixtures"
           / "golden_relearn_sqlite_130x80.json")

#: Everything that pins the sequence; stored in the fixture for reference.
SCENARIO = {
    "system": "sqlite",
    "hardware": "Xavier",
    "n_extra_options": 96,
    "n_extra_events": 61,
    "data_seed": 11,
    "initial_rows": 25,
    "update_rows": [1, 1, 2, 1, 3, 1],
    "learner": {"max_condition_size": 1, "seed": 0},
}


def run_sequence() -> dict:
    """Run the pinned relearn sequence and return the fixture document."""
    system = get_system(SCENARIO["system"], hardware=SCENARIO["hardware"],
                        n_extra_options=SCENARIO["n_extra_options"],
                        n_extra_events=SCENARIO["n_extra_events"])
    total = SCENARIO["initial_rows"] + sum(SCENARIO["update_rows"])
    _, data = system.random_dataset(
        total, np.random.default_rng(SCENARIO["data_seed"]))
    rows = data.rows()
    learner = CausalModelLearner(system.constraints(), **SCENARIO["learner"])

    iterations: list[dict] = []
    fci = pipeline.fci

    def recording_fci(*args, **kwargs):
        result = fci(*args, **kwargs)
        iterations.append(_record(result))
        return result

    pipeline.fci = recording_fci
    try:
        start = SCENARIO["initial_rows"]
        model = learner.learn(Dataset(data.columns, data.values[:start],
                                      discrete=data.discrete_columns))
        for count in SCENARIO["update_rows"]:
            model = learner.update(model, rows[start:start + count])
            start += count
    finally:
        pipeline.fci = fci
    return {
        "description": __doc__.splitlines()[0],
        "scenario": SCENARIO,
        "n_variables": len(model.pag.nodes),
        "iterations": iterations,
        "ci_cache_counters": asdict(learner.ci_cache.counters),
    }


def test_table3_relearn_sequence_matches_golden_fixture():
    expected = json.loads(FIXTURE.read_text())
    actual = run_sequence()
    assert actual["n_variables"] == expected["n_variables"]
    for index, (got, want) in enumerate(zip(actual["iterations"],
                                            expected["iterations"])):
        assert got == want, f"relearn iteration {index} diverged"
    assert len(actual["iterations"]) == len(expected["iterations"])
    assert actual["ci_cache_counters"] == expected["ci_cache_counters"]


if __name__ == "__main__":
    if "--regenerate" in sys.argv[1:]:
        FIXTURE.write_text(json.dumps(run_sequence(), indent=2,
                                      sort_keys=True) + "\n")
        print(f"wrote {FIXTURE}")
    else:
        print(json.dumps(run_sequence(), indent=2, sort_keys=True))
