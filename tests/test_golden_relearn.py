"""Golden relearn-sequence fixture for the incremental discovery path.

A short, seeded Stage IV relearn sequence on Table 3's smallest SQLite
scenario (34 options, 19 events) is frozen under ``tests/fixtures/``.  For
every ``learn``/``update`` call the fixture records a digest of the FCI
output (the PAG, the separating sets and the number of CI tests performed),
and after the last call the CI-decision cache counters.  Any change to the
order, the outcome or the caching of a CI decision shows up here, so a
rewrite of the skeleton search or of the cache must reproduce the fixture
byte for byte.  If a change is meant to alter the learned graphs,
regenerate with::

    PYTHONPATH=src python tests/test_golden_relearn.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.discovery import pipeline
from repro.discovery.pipeline import CausalModelLearner
from repro.stats.dataset import Dataset
from repro.systems.registry import get_system

FIXTURE = Path(__file__).parent / "fixtures" / "golden_relearn_sqlite_34x19.json"

#: Everything that pins the sequence; stored in the fixture for reference.
SCENARIO = {
    "system": "sqlite",
    "hardware": "Xavier",
    "data_seed": 3,
    "initial_rows": 20,
    "update_rows": [1, 1, 2, 1, 3, 1, 1, 2],
    "learner": {"max_condition_size": 2, "seed": 0},
}


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _record(result) -> dict:
    sepsets = sorted([sorted(pair), sorted(sepset)]
                     for pair, sepset in result.separating_sets.items())
    return {
        "pag_sha256": _digest(result.pag.to_dict()),
        "sepsets_sha256": _digest(sepsets),
        "n_sepsets": len(sepsets),
        "tests_performed": int(result.tests_performed),
    }


def run_sequence() -> dict:
    """Run the pinned relearn sequence and return the fixture document."""
    system = get_system(SCENARIO["system"], hardware=SCENARIO["hardware"])
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


def test_relearn_sequence_matches_golden_fixture():
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
