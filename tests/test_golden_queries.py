"""Golden-query regression tests for the inference engine.

Analogous to the golden *graphs* of ``test_golden_graphs.py``: for the two
synthetic SCMs a frozen query→answer JSON fixture pins the semantics of the
engine's query surface — predictions, interventional expectations,
root causes, ranked repairs (changes *and* ICE scores) and satisfaction
probabilities.  Any drift in ``QueryAnswer`` semantics, in the structural
equations, in the deterministic repair ranking or in the batched evaluators
fails the suite.  Numeric answers are compared to 1e-6 (relative); repair
changes and root causes must match exactly.

If a change is intentional, regenerate with::

    PYTHONPATH=src python tests/test_golden_queries.py --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.discovery.pipeline import CausalModelLearner
from repro.inference.engine import CausalInferenceEngine
from repro.inference.queries import PerformanceQuery, QoSConstraint
from test_golden_graphs import SCENARIOS

FIXTURES = Path(__file__).parent / "fixtures"

#: per-system pinned fault context: (objective direction, option overrides).
FAULT_OVERRIDES = {
    "cache_scm": {"CachePolicy": 1.0, "WorkingSetSize": 4.0},
    "pipeline_scm": {"Threads": 1.0, "BufferSize": 64.0},
}


def _build_engine(name: str, batched: bool = True):
    factory, n_samples, seed, learner_kwargs = SCENARIOS[name]
    system = factory()
    _, data = system.random_dataset(n_samples, np.random.default_rng(seed))
    learner = CausalModelLearner(system.constraints(), **learner_kwargs)
    learned = learner.learn(data)
    domains = {option: system.space.option(option).values
               for option in system.space.option_names}
    return system, CausalInferenceEngine(learned, domains, batched=batched)


def _compute_answers(name: str) -> dict:
    system, engine = _build_engine(name)
    objective = system.objective_names[0]
    direction = system.objectives[objective]
    options = system.space.option_names

    configurations = [system.space.default_configuration()]
    for option in options:
        perturbed = system.space.default_configuration()
        perturbed[option] = float(engine.domains[option][-1])
        configurations.append(perturbed)
    predictions = engine.predict_batch(configurations, [objective])

    interventions = [{option: float(value)}
                     for option in options
                     for value in engine.domains[option]]
    expectations = engine.interventional_expectations_batch(objective,
                                                            interventions)

    faulty_configuration = dict(system.space.default_configuration())
    faulty_configuration.update(FAULT_OVERRIDES[name])
    faulty_measurement = {
        objective: float(system.true_objective(faulty_configuration,
                                               objective))
    }
    query = PerformanceQuery.repair({objective: direction})
    answer = engine.answer(query, faulty_configuration=faulty_configuration,
                           faulty_measurement=faulty_measurement)

    threshold = float(np.median(engine.learned_model.data.column(objective)))
    constraint = QoSConstraint(objective, direction, threshold=threshold)
    satisfaction = engine.satisfaction_probability(
        constraint, FAULT_OVERRIDES[name])

    effect_query = PerformanceQuery.effect_of(
        dict(list(FAULT_OVERRIDES[name].items())[:1]),
        {objective: direction})
    effect_answer = engine.answer(effect_query)

    return {
        "objective": objective,
        "direction": direction,
        "predictions": [
            {"configuration": configuration,
             "value": prediction[objective]}
            for configuration, prediction in zip(configurations, predictions)
        ],
        "interventional_expectations": [
            {"intervention": intervention, "value": value}
            for intervention, value in zip(interventions, expectations)
        ],
        "faulty_configuration": faulty_configuration,
        "faulty_measurement": faulty_measurement,
        "root_causes": answer.root_causes,
        "identifiable": answer.identifiable,
        "top_repairs": [
            {"changes": [[option, value] for option, value in repair.changes],
             "ice": repair.ice,
             "improvement": repair.improvement}
            for repair in answer.repairs.top(5)
        ],
        "satisfaction_probability": satisfaction,
        "effect_estimate": effect_answer.estimates[objective],
    }


def _fixture_path(name: str) -> Path:
    return FIXTURES / f"golden_queries_{name}.json"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_query_answers_match_golden_fixture(name):
    fixture = json.loads(_fixture_path(name).read_text())
    golden = fixture["answers"]
    answers = _compute_answers(name)

    assert answers["objective"] == golden["objective"]
    assert answers["direction"] == golden["direction"]
    assert answers["root_causes"] == golden["root_causes"]
    assert answers["identifiable"] == golden["identifiable"]
    assert answers["faulty_configuration"] == golden["faulty_configuration"]

    for computed, frozen in zip(answers["predictions"],
                                golden["predictions"], strict=True):
        assert computed["configuration"] == frozen["configuration"]
        assert computed["value"] == pytest.approx(frozen["value"], rel=1e-6,
                                                  abs=1e-9)
    for computed, frozen in zip(answers["interventional_expectations"],
                                golden["interventional_expectations"],
                                strict=True):
        assert computed["intervention"] == frozen["intervention"]
        assert computed["value"] == pytest.approx(frozen["value"], rel=1e-6,
                                                  abs=1e-9)
    for computed, frozen in zip(answers["top_repairs"],
                                golden["top_repairs"], strict=True):
        # Repair identity and rank order are exact — this is what the
        # deterministic tie-breaking guarantees.
        assert computed["changes"] == frozen["changes"]
        assert computed["ice"] == pytest.approx(frozen["ice"], rel=1e-6,
                                                abs=1e-9)
        assert computed["improvement"] == pytest.approx(
            frozen["improvement"], rel=1e-6, abs=1e-9)
    assert answers["satisfaction_probability"] == pytest.approx(
        golden["satisfaction_probability"], abs=1e-9)
    assert answers["effect_estimate"] == pytest.approx(
        golden["effect_estimate"], rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scalar_oracle_agrees_with_golden_repairs(name):
    """The scalar reference path reproduces the frozen (batched) ranking."""
    fixture = json.loads(_fixture_path(name).read_text())
    golden = fixture["answers"]
    _, engine = _build_engine(name, batched=False)
    repairs = engine.repair_set(
        golden["faulty_configuration"], golden["faulty_measurement"],
        {golden["objective"]: golden["direction"]})
    for repair, frozen in zip(repairs.top(5), golden["top_repairs"],
                              strict=True):
        assert [[o, v] for o, v in repair.changes] == frozen["changes"]
        assert repair.ice == pytest.approx(frozen["ice"], rel=1e-6, abs=1e-9)


def _regenerate() -> None:
    FIXTURES.mkdir(exist_ok=True)
    for name in sorted(SCENARIOS):
        payload = {
            "description": (
                f"Frozen query->answer contract for the {name} synthetic "
                "SCM; regenerate via tests/test_golden_queries.py "
                "--regenerate"),
            "answers": _compute_answers(name),
        }
        path = _fixture_path(name)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
