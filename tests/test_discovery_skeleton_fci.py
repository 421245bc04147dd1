"""Tests for skeleton recovery and FCI orientation on synthetic ground truths."""

import numpy as np
import pytest

from repro.discovery.constraints import StructuralConstraints
from repro.discovery.fci import apply_orientation_rules, fci, orient_colliders
from repro.discovery.skeleton import initial_graph, learn_skeleton
from repro.graph.edges import Mark
from repro.graph.mixed_graph import MixedGraph
from repro.stats.dataset import Dataset
from repro.stats.independence import CIResult, FisherZTest


@pytest.fixture(scope="module")
def collider_data() -> Dataset:
    """Ground truth: x -> z <- y (x, y independent causes of z)."""
    rng = np.random.default_rng(0)
    n = 500
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    z = x + y + rng.normal(scale=0.3, size=n)
    return Dataset(["x", "y", "z"], np.column_stack([x, y, z]))


@pytest.fixture(scope="module")
def chain_data() -> Dataset:
    """Ground truth: a -> b -> c."""
    rng = np.random.default_rng(1)
    n = 500
    a = rng.normal(size=n)
    b = 2 * a + rng.normal(scale=0.4, size=n)
    c = -1.5 * b + rng.normal(scale=0.4, size=n)
    return Dataset(["a", "b", "c"], np.column_stack([a, b, c]))


def test_initial_graph_respects_constraints():
    constraints = StructuralConstraints.from_variable_lists(
        options=["o1", "o2"], events=["e"], objectives=["y"])
    graph = initial_graph(["o1", "o2", "e", "y"], constraints)
    assert not graph.has_edge("o1", "o2")
    assert graph.has_edge("o1", "e")


def test_skeleton_recovers_collider_adjacencies(collider_data):
    result = learn_skeleton(["x", "y", "z"], FisherZTest(collider_data))
    graph = result.graph
    assert graph.has_edge("x", "z")
    assert graph.has_edge("y", "z")
    assert not graph.has_edge("x", "y")
    assert result.separating_set("x", "y") == set()
    assert result.tests_performed > 0


def test_skeleton_prunes_chain_endpoints(chain_data):
    result = learn_skeleton(["a", "b", "c"], FisherZTest(chain_data))
    graph = result.graph
    assert graph.has_edge("a", "b")
    assert graph.has_edge("b", "c")
    assert not graph.has_edge("a", "c")
    assert result.separating_set("a", "c") == {"b"}


def test_orient_colliders_marks_v_structure(collider_data):
    result = learn_skeleton(["x", "y", "z"], FisherZTest(collider_data))
    orient_colliders(result.graph, result.separating_sets)
    assert result.graph.mark("x", "z") is Mark.ARROW
    assert result.graph.mark("y", "z") is Mark.ARROW


def test_rule_r1_orients_away_from_collider():
    # a *-> b o-o c with a, c non-adjacent: R1 gives b -> c.
    graph = MixedGraph(["a", "b", "c"])
    graph.add_edge("a", "b", Mark.CIRCLE, Mark.ARROW)
    graph.add_edge("b", "c", Mark.CIRCLE, Mark.CIRCLE)
    apply_orientation_rules(graph)
    assert graph.mark("b", "c") is Mark.ARROW
    assert graph.mark("c", "b") is Mark.TAIL


def test_fci_on_collider_returns_collider_pag(collider_data):
    result = fci(["x", "y", "z"], FisherZTest(collider_data))
    pag = result.pag
    assert pag.has_edge("x", "z") and pag.has_edge("y", "z")
    assert not pag.has_edge("x", "y")
    assert pag.mark("x", "z") is Mark.ARROW
    assert pag.mark("y", "z") is Mark.ARROW


def test_fci_respects_structural_constraints(chain_data):
    constraints = StructuralConstraints.from_variable_lists(
        options=["a"], events=["b"], objectives=["c"])
    result = fci(["a", "b", "c"], FisherZTest(chain_data),
                 constraints=constraints)
    pag = result.pag
    # The option edge must point out of the option.
    assert pag.mark("b", "a") is Mark.TAIL
    assert pag.mark("a", "b") is Mark.ARROW
    # The objective edge must point into the objective.
    assert pag.mark("b", "c") is Mark.ARROW


def test_required_edges_survive_pruning(chain_data):
    constraints = StructuralConstraints.from_variable_lists(
        options=["a"], events=["b"], objectives=["c"],
        required_edges={("a", "c")})
    result = learn_skeleton(["a", "b", "c"], FisherZTest(chain_data),
                            constraints=constraints)
    assert result.graph.has_edge("a", "c")


# ---------------------------------------------------------------------------
# Traversal-order semantics, pinned with a scripted CI test
# ---------------------------------------------------------------------------
class ScriptedCITest:
    """Name-based CI test that answers from a script and records each call.

    ``independent`` holds ``(pair, conditioning)`` keys, both frozensets of
    names, that the test declares independent; everything else is
    dependent.  ``calls`` lists ``(x, y, conditioning)`` in call order.
    """

    def __init__(self, independent=(), everything_independent=False):
        self.independent = {(frozenset(pair), frozenset(z))
                            for pair, z in independent}
        self.everything_independent = everything_independent
        self.calls: list[tuple[str, str, tuple[str, ...]]] = []

    def test(self, x, y, conditioning=()):
        z = tuple(conditioning)
        self.calls.append((x, y, z))
        independent = (self.everything_independent
                       or (frozenset((x, y)), frozenset(z)) in self.independent)
        return CIResult(independent=independent,
                        p_value=0.5 if independent else 1e-6, statistic=1.0)

    def conditioning_sets(self, x, y):
        return [z for a, b, z in self.calls if {a, b} == {x, y}]


def test_first_separating_set_in_name_order_is_recorded():
    # Both {a} and {b} separate x and y; "a" sorts first, so it is the
    # recorded separating set and {b} is never tried.
    ci_test = ScriptedCITest(independent=[(("x", "y"), ("b",)),
                                          (("x", "y"), ("a",))])
    result = learn_skeleton(["x", "y", "b", "a"], ci_test,
                            max_condition_size=1)
    assert not result.graph.has_edge("x", "y")
    assert result.separating_set("x", "y") == {"a"}
    assert ci_test.conditioning_sets("x", "y") == [(), ("a",)]


def test_edge_removed_earlier_in_a_level_shrinks_later_neighbourhoods():
    # Level 0 removes a - c.  At level 1, a - b (visited before b - c) is
    # separated by {d}; b - c is then tested against {d} only, because
    # "a" is no longer adjacent to b or to c.
    ci_test = ScriptedCITest(independent=[(("a", "c"), ()),
                                          (("a", "b"), ("d",))])
    result = learn_skeleton(["a", "b", "c", "d"], ci_test,
                            max_condition_size=1)
    assert result.separating_set("a", "c") == set()
    assert result.separating_set("a", "b") == {"d"}
    assert ci_test.conditioning_sets("a", "b") == [(), ("c",), ("d",)]
    assert ci_test.conditioning_sets("b", "c") == [(), ("d",)]


def test_required_edges_are_never_tested():
    constraints = StructuralConstraints.from_variable_lists(
        options=[], events=["x", "y", "z"], objectives=[],
        required_edges={("x", "y")})
    ci_test = ScriptedCITest(everything_independent=True)
    result = learn_skeleton(["x", "y", "z"], ci_test,
                            constraints=constraints)
    assert result.graph.has_edge("x", "y")
    assert ci_test.conditioning_sets("x", "y") == []
    assert result.tests_performed == len(ci_test.calls) == 2


def test_objectives_never_enter_a_conditioning_set():
    constraints = StructuralConstraints.from_variable_lists(
        options=["o"], events=["e1", "e2"], objectives=["t"])
    # Separating e1 - e2 at level 1 forces a second pass at level 2.
    ci_test = ScriptedCITest(independent=[(("e1", "e2"), ("o",))])
    learn_skeleton(["o", "e1", "e2", "t"], ci_test, constraints=constraints,
                   max_condition_size=2)
    assert any("t" in (x, y) for x, y, _ in ci_test.calls)
    assert all("t" not in z for _, _, z in ci_test.calls)
    assert any(len(z) == 2 for _, _, z in ci_test.calls)


def test_level0_separating_sets_are_a_view_over_the_sweep():
    # Level 0 removes a - c and b - d; level 1 separates a - b by {d}.
    ci_test = ScriptedCITest(independent=[(("a", "c"), ()), (("b", "d"), ()),
                                          (("a", "b"), ("d",))])
    result = learn_skeleton(["a", "b", "c", "d"], ci_test,
                            max_condition_size=1)
    sepsets = result.separating_sets
    ac, bd, ab = (frozenset(p) for p in (("a", "c"), ("b", "d"), ("a", "b")))
    assert dict(sepsets) == {ac: set(), bd: set(), ab: {"d"}}
    assert len(sepsets) == 3 and ac in sepsets
    assert sepsets.get(frozenset(("c", "d"))) is None
    with pytest.raises(KeyError):
        sepsets[frozenset(("c", "d"))]
    # A level-0 pair can be overwritten and deleted like a dict entry.
    sepsets[ac] = {"b"}
    assert sepsets[ac] == {"b"} and len(sepsets) == 3
    del sepsets[bd]
    assert bd not in sepsets and len(sepsets) == 2
    assert sepsets == {ac: {"b"}, ab: {"d"}}
