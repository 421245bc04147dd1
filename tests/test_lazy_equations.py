"""A relearn builds only what is read, and reads what it always built.

Two outputs of a relearn are produced on first use:

* :func:`~repro.scm.fitting.fit_structural_equations` records each
  endogenous node's parents over the dataset it was given; an equation is
  fitted the first time something reads it.  The hypothesis test holds it
  against the eager fit a refresh used to run (kept here as
  :func:`_eager_fit`), bit for bit, with rows appended (to a new dataset)
  before the first read.
* :class:`~repro.discovery.skeleton.SeparatingSets` names a level-≥1
  separating set only when the pair is read.  Every relearn of the Table 3
  130 x 80 sequence is checked against the eager dict (level ≥ 1 in removal
  order, then later writes, then level 0) before and after the
  Possible-D-Sep writes.

The last test closes the loop at the serving boundary: no sequence of
finite ``observe()`` batches makes a previously finite answer non-finite.
"""

from __future__ import annotations

import copy
import importlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_golden_relearn_table3 import SCENARIO

from repro.core.unicorn import LoopState, Unicorn, UnicornConfig
from repro.discovery import pipeline
from repro.discovery import skeleton as skeleton_module
from repro.discovery.pipeline import CausalModelLearner
from repro.discovery.skeleton import SeparatingSets
from repro.graph.dag import CausalDAG
from repro.inference.engine import CausalInferenceEngine
from repro.inference.queries import PerformanceQuery
from repro.scm import fitting
from repro.scm.batched import BatchedFittedModel
from repro.scm.fitting import (
    FittedEquation,
    FittedPerformanceModel,
    _polynomial_features,
    fit_structural_equations,
)
from repro.service import (
    InvalidMeasurementError,
    ModelRegistry,
    RequestBatcher,
    mixed_workload,
)
from repro.stats.dataset import Dataset
from repro.systems.base import Measurement
from repro.systems.cache_example import make_cache_example
from repro.systems.registry import get_system

fci_module = importlib.import_module("repro.discovery.fci")


# ------------------------------------------------------------ equations
def _eager_fit(data: Dataset, variable: str, parents) -> FittedEquation:
    """The least-squares fit every refresh ran for every node, up front."""
    parents = tuple(sorted(parents))
    y = data.column(variable)
    x = np.column_stack([data.column(p) for p in parents])
    features, names = _polynomial_features(x, parents)
    design = np.column_stack([features, np.ones(len(y))])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return FittedEquation(variable=variable, parents=parents,
                          feature_names=tuple(names),
                          coefficients=beta[:-1], intercept=float(beta[-1]),
                          residual_std=float(np.std(y - design @ beta)))


def _eager_model(dag: CausalDAG, data: Dataset) -> FittedPerformanceModel:
    return FittedPerformanceModel(dag, {
        node: _eager_fit(data, node, dag.parents(node))
        for node in dag.nodes if dag.parents(node)}, data)


def _bits(values: dict) -> dict:
    return {name: float(value).hex() for name, value in values.items()}


def _assert_same_equation(got: FittedEquation, want: FittedEquation):
    assert got.parents == want.parents
    assert got.feature_names == want.feature_names
    assert got.coefficients.tobytes() == want.coefficients.tobytes()
    assert float(got.intercept).hex() == float(want.intercept).hex()
    assert float(got.residual_std).hex() == float(want.residual_std).hex()


@st.composite
def _graphs(draw):
    """A random DAG over 1-8 nodes, each with 0-3 earlier parents."""
    names = [f"v{i}" for i in range(draw(st.integers(1, 8)))]
    edges = []
    for i, name in enumerate(names):
        parents = draw(st.lists(st.integers(0, i - 1), max_size=min(3, i),
                                unique=True)) if i else []
        edges += [(names[p], name) for p in parents]
    return CausalDAG(names, edges)


def _table(dag: CausalDAG, n_rows: int, seed: int) -> np.ndarray:
    """Rows over the DAG; even-numbered nodes are binary (so x == x**2 and
    the fits are rank-deficient), the others continuous."""
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(n_rows, len(dag.nodes)))
    table[:, ::2] = rng.integers(0, 2, size=table[:, ::2].shape)
    return table


@given(dag=_graphs(), n_rows=st.integers(5, 40), seed=st.integers(0, 2**32 - 1),
       pre_append=st.booleans(), appended=st.integers(1, 6),
       order=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_lazy_fits_equal_eager_fits_across_appends(
        dag, n_rows, seed, pre_append, appended, order):
    names = dag.nodes
    table = _table(dag, n_rows + 1 + appended, seed)
    data = Dataset(names, table[:n_rows])
    if pre_append:
        data = data.append_rows([dict(zip(names, table[n_rows]))])
    eager = _eager_model(dag, data)
    lazy = fit_structural_equations(dag, data)
    lazy_queries = fit_structural_equations(dag, data)
    view = data.values.copy()
    grown = data.append_rows([dict(zip(names, row))
                              for row in table[n_rows + 1:]])
    assert grown.n_rows == data.n_rows + appended
    assert data.values.tobytes() == view.tobytes()

    # Queries first: predict and abduction fit what they read.
    assignment = {name: float(table[-1, k]) for k, name in enumerate(names)
                  if not dag.parents(name)}
    assert _bits(lazy_queries.predict(assignment)) == \
        _bits(eager.predict(assignment))
    observation = {name: float(table[0, k]) for k, name in enumerate(names)
                   if order.random() < 0.8}
    got = BatchedFittedModel(lazy_queries)._abduct_residuals(observation)
    want = BatchedFittedModel(eager)._abduct_residuals(observation)
    assert list(got) == list(want)
    assert _bits(dict(got)) == _bits(dict(want))

    endogenous = list(eager.parents())
    assert list(lazy.parents()) == endogenous
    order.shuffle(endogenous)
    for name in endogenous:
        _assert_same_equation(lazy.equation(name), eager.equation(name))
    assert lazy.to_dict() == eager.to_dict()
    assert lazy_queries.to_dict() == eager.to_dict()


def test_a_racing_second_fit_keeps_one_equation(monkeypatch):
    dag = CausalDAG(["a", "b"], [("a", "b")])
    data = Dataset(["a", "b"], _table(dag, 12, 3))
    model = fit_structural_equations(dag, data)
    fit = fitting._fit_equation
    landed: list = []

    def racing_fit(*args):
        if not landed:  # another thread's fit lands while this one runs
            landed.append(None)
            landed.append(model.equation("b"))
        return fit(*args)

    monkeypatch.setattr(fitting, "_fit_equation", racing_fit)
    kept = model.equation("b")
    assert kept is landed[1] and model.equation("b") is kept
    _assert_same_equation(kept, _eager_fit(data, "b", ("a",)))
    assert model.has_equation("b") and not model.has_equation("a")


@pytest.fixture(scope="module")
def sqlite_engine():
    """The debug benchmark's SQLite 130x80 subject after 15 samples."""
    system = get_system("sqlite", hardware="Xavier", n_extra_options=96,
                        n_extra_events=61)
    unicorn = Unicorn(system, UnicornConfig(initial_samples=15, budget=30,
                                            seed=0, max_condition_size=1))
    state = LoopState()
    unicorn.collect_initial_samples(state)
    return system, unicorn.learn(state)


def test_debug_step_fits_fewer_equations_than_the_graph_has(sqlite_engine,
                                                           monkeypatch):
    system, built = sqlite_engine
    learned = built.learned_model
    fitted: list[str] = []
    fit = fitting._fit_equation

    def counting_fit(rows, column, variable, parents):
        fitted.append(variable)
        return fit(rows, column, variable, parents)

    monkeypatch.setattr(fitting, "_fit_equation", counting_fit)
    objective = "QueryTime"
    data = learned.data
    row = data.row(int(np.argmax(data.column(objective))))
    faulty = {name: row[name] for name in system.space.option_names}
    measured = {name: row[name] for name in system.objective_names}
    query = PerformanceQuery.repair({objective: system.objectives[objective]})

    def debug_step(engine):
        answer = engine.answer(query, faulty_configuration=faulty,
                               faulty_measurement=measured)
        return (answer.root_causes, repr(answer.repairs.repairs),
                _bits(engine.sampling_probabilities([objective])))

    engine = CausalInferenceEngine(learned, built.domains)
    lazy = debug_step(engine)
    endogenous = engine.fitted_model.parents()
    assert 0 < len(fitted) < len(endogenous)
    assert len(set(fitted)) == len(fitted)
    # The same answers as with every equation fitted up front.
    everything = FittedPerformanceModel(
        engine.fitted_model.dag, fit_structural_equations(
            learned.graph, data).equations(), data)
    assert debug_step(CausalInferenceEngine(
        learned, built.domains, prefitted=everything)) == lazy


# ------------------------------------------------------ separating sets
class _Eager:
    """The separating sets as the skeleton search used to build them: every
    level-≥1 set named up front, in removal order, then later writes, then
    the level-0 pairs."""

    def __init__(self, space, marginal, removed, name_of):
        self.sets = {space.pair_names[pair]: {name_of[c] for c in subset}
                     for pair, subset in removed.items()}
        self.level0 = {space.testable_names[k]: set()
                       for k in np.flatnonzero(marginal).tolist()}

    def __setitem__(self, key, value):
        self.level0.pop(key, None)
        self.sets[key] = value

    def __delitem__(self, key):
        if self.level0.pop(key, None) is None:
            del self.sets[key]

    def items(self):
        return [*self.sets.items(), *self.level0.items()]


class _Checked(SeparatingSets):
    """Lazy separating sets that mirror every write into the eager dict."""

    def __init__(self, space=None, marginal=None, removed=None, name_of=None):
        self.eager = _Eager(space, marginal, removed, name_of)
        super().__init__(space, marginal, removed, name_of)

    def __setitem__(self, key, value):
        self.eager[key] = value
        super().__setitem__(key, value)

    def __delitem__(self, key):
        del self.eager[key]
        super().__delitem__(key)


def _assert_matches_eager(sepsets: _Checked, absent) -> None:
    expected = sepsets.eager.items()
    assert len(sepsets) == len(expected)
    # Iteration order first: it names nothing, so it sees FCI's reads only.
    assert list(sepsets) == [key for key, _ in expected]
    for key, value in reversed(expected):
        assert sepsets.get(key) == value and key in sepsets
    assert list(sepsets.items()) == expected
    assert sepsets.get(absent) is None and absent not in sepsets
    with pytest.raises(KeyError):
        sepsets[absent]


def _assert_set_and_delete(sepsets: _Checked, absent) -> None:
    eager = sepsets.eager
    if eager.sets:
        sepsets[next(iter(eager.sets))] = {"written"}
        del sepsets[next(reversed(eager.sets))]
    for key in list(eager.level0)[:2]:
        sepsets[key] = {"written"}
    if eager.level0:
        del sepsets[next(iter(eager.level0))]
    sepsets[absent] = {"new"}
    _assert_matches_eager(sepsets, frozenset(("no", "pair")))


def test_separating_sets_match_eager_dict_on_table3_relearns(monkeypatch):
    checked: list[int] = []
    absent = frozenset(("no such", "pair"))
    prune = fci_module._pdsep_prune

    def checking_prune(graph, ci_test, sepsets, *args, **kwargs):
        _assert_matches_eager(copy.deepcopy(sepsets), absent)
        _assert_set_and_delete(copy.deepcopy(sepsets), absent)
        tests = prune(graph, ci_test, sepsets, *args, **kwargs)
        _assert_matches_eager(copy.deepcopy(sepsets), absent)
        return tests

    fci = pipeline.fci

    def checking_fci(*args, **kwargs):
        result = fci(*args, **kwargs)
        _assert_matches_eager(result.separating_sets, absent)
        checked.append(len(result.separating_sets))
        return result

    monkeypatch.setattr(skeleton_module, "SeparatingSets", _Checked)
    monkeypatch.setattr(fci_module, "_pdsep_prune", checking_prune)
    monkeypatch.setattr(pipeline, "fci", checking_fci)
    system = get_system(SCENARIO["system"], hardware=SCENARIO["hardware"],
                        n_extra_options=SCENARIO["n_extra_options"],
                        n_extra_events=SCENARIO["n_extra_events"])
    total = SCENARIO["initial_rows"] + sum(SCENARIO["update_rows"])
    _, data = system.random_dataset(
        total, np.random.default_rng(SCENARIO["data_seed"]))
    rows = data.rows()
    learner = CausalModelLearner(system.constraints(), **SCENARIO["learner"])
    start = SCENARIO["initial_rows"]
    model = learner.learn(Dataset(data.columns, data.values[:start],
                                  discrete=data.discrete_columns))
    for count in SCENARIO["update_rows"]:
        model = learner.update(model, rows[start:start + count])
        start += count
    assert len(checked) == 1 + len(SCENARIO["update_rows"])
    assert min(checked) > 0


# ------------------------------------------------- finite across observe()
SMALL = {"system": "cache_example", "n_samples": 30, "seed": 0}
_SYSTEM = make_cache_example()
#: Every finite float, with measured-scale values drawn often enough that
#: most batches are accepted rather than refused at the boundary.
_FINITE = st.one_of(st.floats(min_value=-1e9, max_value=1e9),
                    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _measurement(draw) -> Measurement:
    return Measurement(
        configuration={name: draw(st.sampled_from(values)) for name, values
                       in _SYSTEM.space.domains().items()},
        events={name: draw(_FINITE) for name in _SYSTEM.events},
        objectives={name: draw(_FINITE) for name in _SYSTEM.objective_names},
        environment=_SYSTEM.environment.name)


def _finite(value) -> bool:
    """Whether a served answer holds only finite numbers and no error."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return value.get("error") is None and all(
            _finite(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(item) for item in value)
    return True


@given(batches=st.lists(st.lists(_measurement(), min_size=1, max_size=5),
                        min_size=1, max_size=3))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_finite_observations_keep_finite_answers_finite(batches):
    registry = ModelRegistry(capacity=1)
    entry = registry.get_or_fit(SMALL)
    probes = mixed_workload(entry.key, entry.engine, _SYSTEM.objectives, 16,
                            seed=5)
    batcher = RequestBatcher()
    finite = [_finite(response.canonical_value())
              for response in batcher.dispatch(entry, probes)]
    for batch in batches:
        version = entry.version
        try:
            registry.observe(entry.key, batch)
        except InvalidMeasurementError:
            assert entry.version == version  # refused whole, nothing applied
        now = [_finite(response.canonical_value())
               for response in batcher.dispatch(entry, probes)]
        assert [k for k, (was, is_) in enumerate(zip(finite, now))
                if was and not is_] == []
        finite = now
