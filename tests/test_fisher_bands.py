"""Fisher z decisions by ratio bands, and an engine refresh by mark diffs.

A CI decision of the array paths is a band code: dependent or independent
at ``alpha``.  :func:`_fisher_z_bands` places an element from its ratio
``(1 + r) / (1 - r)`` against the two bounds of ``alpha``, and leaves an
element next to a bound to the scalar form (the guard band).  These tests
hold the codes against :func:`_fisher_z_from_correlation` within a few ulps
of every bound, count the ``log`` and ``erfc`` calls of a relearn
sequence, and hold the engine refresh's changed nodes, DAG and topological
order against the whole-graph diff and the edge-by-edge build they replace.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_golden_relearn_table3 import SCENARIO, run_sequence

from repro.discovery.pipeline import CausalModelLearner
from repro.graph.dag import CausalDAG
from repro.inference.engine import CausalInferenceEngine
from repro.stats import independence
from repro.stats.dataset import Dataset
from repro.stats.independence import (
    _DEPENDENT,
    _GUARD,
    _INDEPENDENT,
    _fisher_z_bands,
    _fisher_z_from_correlation,
)
from repro.systems.registry import get_system

_TOP = 0.9999999


def _scalar_band(r: float, n: int, k: int, alpha: float) -> int:
    """The band of the scalar result: its decision."""
    return int(_fisher_z_from_correlation(r, n, k, alpha).independent)


def _bound(n: int, k: int, alpha: float, sign: float) -> float:
    """The correlation on the ``sign`` side of zero, to the ulp, at which
    the scalar decision first turns dependent (0 or the clamp when it
    never does)."""
    def below(r: float) -> bool:
        return _scalar_band(sign * r, n, k, alpha) < _INDEPENDENT

    low, high = 0.0, _TOP
    if below(low) or not below(high):
        return sign * (low if below(low) else high)
    while True:
        middle = (low + high) / 2
        if middle in (low, high):
            return sign * high
        if below(middle):
            high = middle
        else:
            low = middle


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                       exclude_max=True),
       dof=st.integers(min_value=-2, max_value=100_000),
       k=st.integers(min_value=0, max_value=2),
       sign=st.sampled_from([1.0, -1.0]),
       spread=st.lists(st.floats(min_value=-_TOP, max_value=_TOP),
                       max_size=16))
def test_band_codes_agree_with_the_scalar_form(alpha, dof, k, sign, spread):
    n = dof + k + 3
    edge = _bound(n, k, alpha, sign)
    near = [edge]
    for _ in range(4):
        near = [float(np.nextafter(near[0], -2.0)), *near,
                float(np.nextafter(near[-1], 2.0))]
    corr = [r for r in near + spread if abs(r) <= _TOP]
    bands = _fisher_z_bands(np.array(corr), n, k, alpha)
    for r, band in zip(corr, bands.tolist()):
        assert band == _GUARD or band == _scalar_band(r, n, k, alpha), r
    if dof <= 0:
        assert (bands == _DEPENDENT).all()


def test_guard_band_is_rare():
    """Away from the bounds every element is placed without the scalar
    form."""
    rng = np.random.default_rng(0)
    corr = rng.uniform(-1, 1, 100_000)
    for n, alpha in [(40, 0.05), (16, 0.01), (500, 0.3)]:
        bands = _fisher_z_bands(corr, n, 1, alpha)
        assert np.count_nonzero(bands == _GUARD) <= 2


class _CountingMath:
    """The ``math`` module, counting ``log`` and ``erfc`` calls."""

    def __init__(self) -> None:
        self.calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log(self, *args):
        self.calls += 1
        return math.log(*args)

    def erfc(self, *args):
        self.calls += 1
        return math.erfc(*args)


#: ``math.log`` + ``math.erfc`` calls in ``stats/independence.py`` over the
#: Table 3 130 x 80 relearn sequence when every fresh Fisher z element of
#: the array paths took one of each (68,963 + 68,963).
_PER_ELEMENT_CALLS = 137_926


def test_relearns_call_log_and_erfc_for_at_most_one_percent(monkeypatch):
    counting = _CountingMath()
    monkeypatch.setattr(independence, "math", counting)
    run_sequence()
    assert counting.calls <= _PER_ELEMENT_CALLS // 100


def _reference_changed_nodes(old, new) -> set[str]:
    """The whole-graph diff: endpoints of edges added, removed or with a
    changed mark."""
    old_edges = {frozenset((e.u, e.v)): (e.mark_u, e.mark_v)
                 for e in old.edges()}
    new_edges = {frozenset((e.u, e.v)): (e.mark_u, e.mark_v)
                 for e in new.edges()}
    changed: set[str] = set()
    for key in old_edges.keys() ^ new_edges.keys():
        changed |= set(key)
    for key in old_edges.keys() & new_edges.keys():
        if old_edges[key] != new_edges[key]:
            changed |= set(key)
    return changed


def _reference_order(dag: CausalDAG) -> list[str]:
    """Kahn's algorithm with insertion-order tie-break, from the front of
    a list."""
    order = dag.nodes
    in_degree = {n: len(dag.parents(n)) for n in order}
    ready = [n for n in order if in_degree[n] == 0]
    out: list[str] = []
    while ready:
        node = ready.pop(0)
        out.append(node)
        for child in sorted(dag.children(node), key=order.index):
            in_degree[child] -= 1
            if in_degree[child] == 0:
                ready.append(child)
    return out


def _table3_models():
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
    yield system, model
    for count in SCENARIO["update_rows"]:
        model = learner.update(model, rows[start:start + count])
        start += count
        yield system, model


def test_refresh_diffs_marks_and_builds_the_dag_once_per_graph():
    models = _table3_models()
    system, model = next(models)
    engine = CausalInferenceEngine(model, {
        option: system.space.option(option).values
        for option in system.space.option_names})
    changed_any = False
    for _, updated in models:
        old = engine.learned_model.graph
        changed = CausalInferenceEngine._changed_edge_nodes(old,
                                                            updated.graph)
        assert changed == _reference_changed_nodes(old, updated.graph)
        changed_any |= bool(changed)
        engine.refresh(updated)
        dag = engine.fitted_model.dag
        reference = CausalDAG(updated.graph.nodes,
                              updated.graph.directed_edges())
        assert dag.nodes == reference.nodes
        assert dag.edges() == reference.edges()
        assert all(dag.children(n) == reference.children(n)
                   for n in dag.nodes)
        assert dag.topological_order() == _reference_order(reference)
        assert list(engine.query_plan.topological_order) == \
            dag.topological_order()
    assert changed_any


def test_topological_order_is_memoised_until_the_graph_changes(monkeypatch):
    dag = CausalDAG(["c", "a", "b", "d"], [("a", "b"), ("c", "b")])
    sorts = []
    kahn = CausalDAG._kahn

    def counting(self):
        sorts.append(1)
        return kahn(self)

    monkeypatch.setattr(CausalDAG, "_kahn", counting)
    assert dag.topological_order() == ["c", "a", "d", "b"]
    assert dag.topological_order() == ["c", "a", "d", "b"]
    assert len(sorts) == 1
    dag.add_edge("d", "c")
    assert dag.topological_order() == ["a", "d", "c", "b"]
    dag.remove_edge("d", "c")
    dag.add_node("e")
    assert dag.topological_order() == _reference_order(dag)
    assert len(sorts) == 3


def test_a_directed_cycle_in_a_mixed_graph_is_refused():
    from repro.graph.dag import CycleError
    from repro.graph.mixed_graph import MixedGraph

    graph = MixedGraph(["a", "b", "c"])
    graph.add_directed_edge("a", "b")
    graph.add_directed_edge("b", "c")
    graph.add_directed_edge("c", "a")
    with pytest.raises(CycleError):
        CausalDAG.from_mixed_graph(graph)
