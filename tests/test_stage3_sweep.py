"""One Stage III sweep for every objective, one median per measurement.

``CausalInferenceEngine.total_option_effects`` answers every objective from
one ``interventional_expectation_table`` execution per intervention key set.
These differential tests hold it bit for bit (values and key order) against
the per-objective form it replaced — ``option_effects`` summed objective by
objective — on the case-study engine and on the Table 3 SQLite 130x80
engine, on the batched and the scalar path.  The option order comes from
constraint iteration, so CI also runs this file under a non-default
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.scm.batched as batched_module
from repro.core.unicorn import LoopState, Unicorn, UnicornConfig
from repro.inference.effects import (
    _mean_step,
    _permissible_values,
    average_causal_effect,
    average_causal_effects_table,
)
from repro.inference.engine import CausalInferenceEngine
from repro.inference.queries import PerformanceQuery
from repro.scm.batched import BatchedFittedModel
from repro.scm.fitting import FittedPerformanceModel
from repro.stats.dataset import Dataset
from repro.systems.base import ConfigurableSystem
from repro.systems.registry import get_system


def _bits(mapping: dict) -> list[tuple[str, str]]:
    """Key order and exact bits of a float-valued mapping."""
    return [(key, float(value).hex()) for key, value in mapping.items()]


def _per_objective_totals(engine, objectives) -> dict[str, float]:
    """The per-objective summation the single sweep replaced."""
    totals: dict[str, float] = {}
    for objective in objectives:
        for option, effect in engine.option_effects(objective).items():
            totals[option] = totals.get(option, 0.0) + effect
    return totals


def _probabilities(totals: dict[str, float]) -> dict[str, float]:
    values = np.array(list(totals.values()), dtype=float)
    if values.sum() <= 0:
        uniform = 1.0 / max(len(totals), 1)
        return {option: uniform for option in totals}
    values = values / values.sum()
    return {option: float(p) for option, p in zip(totals, values)}


@pytest.fixture(scope="module")
def sqlite_engine():
    """Engine of the debug benchmark's SQLite 130x80 subject after 15 samples."""
    system = get_system("sqlite", hardware="Xavier", n_extra_options=96,
                        n_extra_events=61)
    unicorn = Unicorn(system, UnicornConfig(initial_samples=15, budget=30,
                                            seed=0, max_condition_size=1))
    state = LoopState()
    unicorn.collect_initial_samples(state)
    return system, unicorn.learn(state)


def _scalar_twin(engine: CausalInferenceEngine) -> CausalInferenceEngine:
    return CausalInferenceEngine(engine.learned_model, engine.domains,
                                 batched=False,
                                 prefitted=engine.fitted_model)


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "scalar"])
def test_case_study_sweep_equals_per_objective_sums(case_study_engine,
                                                    case_study_system,
                                                    batched):
    engine = (case_study_engine if batched
              else _scalar_twin(case_study_engine))
    objectives = case_study_system.objective_names
    reference = _per_objective_totals(engine, objectives)
    assert reference
    assert _bits(engine.total_option_effects(objectives)) == _bits(reference)
    assert _bits(engine.sampling_probabilities(objectives)) == \
        _bits(_probabilities(reference))
    for single in objectives:
        assert _bits(engine.total_option_effects([single])) == \
            _bits(engine.option_effects(single))


def test_sqlite_130x80_sweep_equals_per_objective_sums(sqlite_engine):
    system, engine = sqlite_engine
    objectives = system.objective_names
    assert len(objectives) == 3
    reference = _per_objective_totals(engine, objectives)
    assert len(reference) == 130
    assert _bits(engine.total_option_effects(objectives)) == _bits(reference)
    assert _bits(engine.sampling_probabilities(objectives)) == \
        _bits(_probabilities(reference))


def test_sweep_over_no_objectives_does_no_work(sqlite_engine, monkeypatch):
    system, engine = sqlite_engine

    def fail(*args, **kwargs):
        raise AssertionError("an empty sweep executed a program")

    monkeypatch.setattr(BatchedFittedModel,
                        "interventional_expectation_table", fail)
    assert engine.total_option_effects([]) == {}
    assert engine.answer(PerformanceQuery.optimize({})).estimates == {}


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "scalar"])
def test_optimize_answer_equals_per_objective_sweeps(case_study_engine,
                                                     case_study_system,
                                                     batched):
    """The OPTIMIZE query reads every objective's largest |ACE| from one
    sweep; each estimate and note equals the per-objective sweep's."""
    engine = (case_study_engine if batched
              else _scalar_twin(case_study_engine))
    objectives = case_study_system.objective_names
    answer = engine.answer(PerformanceQuery.optimize(
        {objective: "minimize" for objective in objectives}))
    expected, note = {}, ""
    for objective in objectives:
        effects = engine.option_effects(objective)
        best = max(effects, key=effects.get)
        expected[objective] = effects[best]
        note = (f"option with the largest causal effect on "
                f"{objective}: {best}")
    assert _bits(answer.estimates) == _bits(expected)
    assert answer.notes == note


def test_expectation_table_rows_equal_one_target_calls(sqlite_engine):
    """Every target branch: produced, intervened key, untouched column,
    unknown name — each row equals the one-target call bit for bit."""
    system, engine = sqlite_engine
    evaluator = engine.batched_evaluator
    model = engine.fitted_model
    option = next(o for o in engine.domains
                  if model.dag.descendants(o) & set(system.objective_names))
    other = next(o for o in engine.domains
                 if o != option and o not in model.dag.ancestors(option))
    interventions = ([{option: v} for v in engine.domains[option]]
                     + [{option: v, other: w}
                        for v in engine.domains[option][:2]
                        for w in engine.domains[other][:2]])
    targets = [*system.objective_names, option, other, "not-a-variable"]
    table = evaluator.interventional_expectation_table(
        targets, interventions, max_contexts=60)
    assert table.shape == (len(targets), len(interventions))
    for row, target in zip(table, targets):
        single = evaluator.interventional_expectation_batch(
            target, interventions, max_contexts=60)
        assert row.tobytes() == single.tobytes()
    assert list(table[targets.index(option)]) == \
        [i[option] for i in interventions]
    assert not table[-1].any()


def test_keyset_with_no_target_downstream_executes_nothing(sqlite_engine,
                                                          monkeypatch):
    """A key set none of whose targets is downstream compiles nothing, and
    its rows (an untouched column, the intervened key, an unknown name)
    equal those of a call that executes the key set's program for a
    downstream target as well."""
    system, engine = sqlite_engine
    model = engine.fitted_model
    objective = system.objective_names[0]
    option = next(o for o in engine.domains
                  if objective in model.dag.descendants(o))
    untouched = next(v for v in model.data.columns
                     if v != option
                     and v not in model.dag.descendants(option))
    interventions = [{option: v} for v in engine.domains[option]]
    targets = [untouched, option, "not-a-variable"]
    compiles = _counting_compiles(monkeypatch)
    fresh = CausalInferenceEngine(engine.learned_model, engine.domains,
                                  prefitted=model)
    evaluator = fresh.batched_evaluator
    skipped = evaluator.interventional_expectation_table(
        targets, interventions, max_contexts=60)
    assert not compiles
    executed = evaluator.interventional_expectation_table(
        [*targets, objective], interventions, max_contexts=60)
    assert len(compiles) == 1
    assert skipped.tobytes() == executed[:len(targets)].tobytes()
    assert list(skipped[1]) == [i[option] for i in interventions]
    assert not skipped[2].any()
    scalar = [model.interventional_expectation(untouched, i, max_contexts=60)
              for i in interventions]
    np.testing.assert_allclose(skipped[0], scalar, rtol=1e-12)


def test_effects_off_the_downstream_set_equal_mean_steps(sqlite_engine):
    """Every signed ACE equals the mean step of its expectation slice,
    also where the treatment does not reach the target and the slice's
    steps are not averaged."""
    system, engine = sqlite_engine
    model, evaluator = engine.fitted_model, engine.batched_evaluator
    options = list(engine.domains)
    targets = [*system.objective_names, options[0]]
    table = average_causal_effects_table(
        model, targets, options, domains=engine.domains, max_contexts=60,
        evaluator=evaluator)
    off = 0
    for option, column in zip(options, zip(*table)):
        values = _permissible_values(model, option, engine.domains)
        if len(values) < 2:
            assert set(column) == {0.0}
            continue
        rows = evaluator.interventional_expectation_table(
            targets, [{option: v} for v in values], max_contexts=60)
        reached = evaluator.plan.affected_variables((option,))
        off += sum(target not in reached for target in targets)
        assert [float(e).hex() for e in column] == \
            [float(_mean_step(row)).hex() for row in rows]
    assert off > 100


class _FixedTable:
    """An evaluator whose expectation table is given."""

    def __init__(self, rows):
        self.rows = np.array(rows, dtype=float)

    def interventional_expectation_table(self, targets, interventions,
                                         max_contexts):
        assert self.rows.shape == (len(targets), len(interventions))
        return self.rows


def test_effects_of_repeated_values_equal_mean_steps():
    """Slices that repeat one bit pattern (a number, +0, -0, inf, nan),
    slices that change only in sign of zero or NaN-ness, and one-value
    sweeps give the mean step bit for bit."""
    inf, nan = float("inf"), float("nan")
    domains = {"a": [0.0, 1.0, 2.0], "b": [5.0], "c": [1.0, 2.0],
               "d": [0.0, 1.0, 2.0, 3.0]}
    # Slices: a is [0, 3), b is empty, c is [3, 5), d is [5, 9).
    rows = [[1.5, 1.5, 1.5, 2.0, 2.0, -0.0, -0.0, -0.0, -0.0],
            [0.0, -0.0, 0.0, inf, inf, nan, nan, nan, nan],
            [-0.0, 0.0, -0.0, 3.0, -inf, 7.0, 7.0, 7.0, 7.5],
            [inf, inf, inf, nan, 1.0, 0.0, 0.0, 0.0, 0.0]]
    effects = average_causal_effects_table(
        None, ["w", "x", "y", "z"], list(domains), domains=domains,
        evaluator=_FixedTable(rows))
    for row, effect in zip(rows, effects):
        expected = [_mean_step(row[0:3]), 0.0, _mean_step(row[3:5]),
                    _mean_step(row[5:9])]
        assert [float(e).hex() for e in effect] == \
            [float(e).hex() for e in expected]


def test_table_with_zero_contexts_is_zero(sqlite_engine):
    system, engine = sqlite_engine
    model = engine.fitted_model
    empty = Dataset(model.data.columns,
                    np.empty((0, len(model.data.columns))))
    evaluator = BatchedFittedModel(FittedPerformanceModel(
        model.dag, model.equations(), empty))
    option = next(iter(engine.domains))
    table = evaluator.interventional_expectation_table(
        system.objective_names, [{option: 1.0}, {option: 2.0}])
    assert table.shape == (3, 2) and not table.any()


def test_effects_table_matches_pairwise_ace(case_study_engine,
                                           case_study_system):
    engine = case_study_engine
    options = list(engine.domains)
    objectives = case_study_system.objective_names
    for evaluator in (engine.batched_evaluator, None):
        table = average_causal_effects_table(
            engine.fitted_model, objectives, options, domains=engine.domains,
            max_contexts=60, evaluator=evaluator)
        for objective, row in zip(objectives, table):
            for option, effect in zip(options, row):
                assert float(effect).hex() == float(average_causal_effect(
                    engine.fitted_model, objective, option,
                    domains=engine.domains, max_contexts=60,
                    evaluator=evaluator)).hex()


def _counting_compiles(monkeypatch) -> list[int]:
    compiles: list[int] = []
    original = batched_module.compile_fused_program

    def counting(*args, **kwargs):
        compiles.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(batched_module, "compile_fused_program", counting)
    return compiles


def test_repeated_sweep_compiles_nothing(sqlite_engine, monkeypatch):
    """At one model version a sweep compiles one program per treatment key
    set with an objective downstream and none for the others, and
    repeating it compiles none: the program cache holds a whole sweep at
    213 variables."""
    system, engine = sqlite_engine
    compiles = _counting_compiles(monkeypatch)
    fresh = CausalInferenceEngine(engine.learned_model, engine.domains,
                                  prefitted=engine.fitted_model)
    assert fresh.query_plan.program_capacity >= len(
        engine.fitted_model.dag.nodes)
    objectives = set(system.objective_names)
    reaching = [
        option for option in engine.domains
        if len(_permissible_values(engine.fitted_model, option,
                                   engine.domains)) >= 2
        and objectives & (fresh.query_plan.affected_variables((option,))
                          - {option})]
    fresh.sampling_probabilities(system.objective_names)
    first = len(compiles)
    assert 0 < first == len(reaching) < 130
    fresh.sampling_probabilities(system.objective_names)
    for objective in system.objective_names:
        fresh.option_effects(objective)
    assert len(compiles) == first
    assert fresh.model_version == 0


@pytest.mark.parametrize("n_repeats", [1, 2, 3, 4, 5])
def test_measure_median_matches_per_key_median(n_repeats, monkeypatch):
    """One column-wise median equals ``np.median`` per key, NaN/inf too."""
    system = get_system("sqlite", hardware="Xavier")
    rng = np.random.default_rng(n_repeats)
    names = list(system.events) + list(system.objective_names)
    pool = [np.nan, np.inf, -np.inf, 0.0, -0.0]
    outcomes = []
    for _ in range(n_repeats):
        values = rng.normal(size=len(names))
        for j in rng.choice(len(names), size=len(names) // 3, replace=False):
            values[j] = pool[rng.integers(len(pool))]
        outcomes.append(dict(zip(names, values.tolist())))
    replay = iter(outcomes)
    monkeypatch.setattr(system.scm, "intervene",
                        lambda config, rng=None: next(replay))
    measurement = ConfigurableSystem.measure(
        system, system.space.default_configuration(), n_repeats=n_repeats)
    with np.errstate(invalid="ignore"):
        expected = {name: float(np.median([o[name] for o in outcomes]))
                    for name in names}
    got = {**measurement.events, **measurement.objectives}
    assert list(got) == names
    assert _bits(got) == _bits(expected)
