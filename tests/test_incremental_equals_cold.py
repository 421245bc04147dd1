"""An incremental update is a cold learn over the same rows.

``CausalModelLearner.update`` appends the new rows to the model's dataset
and reruns FCI on the grown data.  No CI decision outlives the data epoch
it was made in, so every update must give the PAG, the separating sets and
the number of CI tests that a fresh learner's ``learn`` gives over the same
rows.  Both golden relearn sequences are checked: Table 3's largest SQLite
scenario (130 options, 80 events, conditioning sets up to size 1) and its
smallest (34 options, 19 events, up to size 2).
"""

from __future__ import annotations

import numpy as np
import pytest
import test_golden_relearn
import test_golden_relearn_table3

from repro.discovery import pipeline
from repro.discovery.pipeline import CausalModelLearner
from repro.stats.dataset import Dataset
from repro.systems.registry import get_system


def _outcome(result) -> tuple:
    return (result.pag.to_dict(), dict(result.separating_sets),
            result.tests_performed)


def _recorded_fci(monkeypatch) -> list[tuple]:
    """Patch the pipeline's FCI to record the outcome of every call."""
    outcomes: list[tuple] = []
    fci = pipeline.fci

    def recording_fci(*args, **kwargs):
        result = fci(*args, **kwargs)
        outcomes.append(_outcome(result))
        return result

    monkeypatch.setattr(pipeline, "fci", recording_fci)
    return outcomes


@pytest.mark.parametrize("scenario", [
    test_golden_relearn_table3.SCENARIO,
    test_golden_relearn.SCENARIO,
], ids=["sqlite_130x80_cap1", "sqlite_34x19_cap2"])
def test_every_update_equals_a_cold_learn_over_the_same_rows(
        scenario, monkeypatch):
    extra = {key: scenario[key] for key in ("n_extra_options",
                                            "n_extra_events")
             if key in scenario}
    system = get_system(scenario["system"], hardware=scenario["hardware"],
                        **extra)
    total = scenario["initial_rows"] + sum(scenario["update_rows"])
    _, data = system.random_dataset(
        total, np.random.default_rng(scenario["data_seed"]))
    rows = data.rows()
    outcomes = _recorded_fci(monkeypatch)

    def prefix(end: int) -> Dataset:
        return Dataset(data.columns, data.values[:end],
                       discrete=data.discrete_columns)

    learner = CausalModelLearner(system.constraints(), **scenario["learner"])
    end = scenario["initial_rows"]
    model = learner.learn(prefix(end))
    for count in scenario["update_rows"]:
        model = learner.update(model, rows[end:end + count])
        end += count
        assert model.incremental and model.n_samples == end
        updated = outcomes[-1]
        CausalModelLearner(system.constraints(),
                           **scenario["learner"]).learn(prefix(end))
        cold = outcomes[-1]
        assert updated[0] == cold[0], f"PAG differs at {end} rows"
        assert updated[1] == cold[1], f"separating sets differ at {end} rows"
        assert updated[2] == cold[2], f"test count differs at {end} rows"
