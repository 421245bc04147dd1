"""Tests for d-separation and Possible-D-Sep."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.discovery.fci import _Reach
from repro.graph.dag import CausalDAG
from repro.graph.edges import Mark
from repro.graph.mixed_graph import MixedGraph
from repro.graph.separation import (
    d_separated,
    possible_d_sep,
    possible_d_sep_reach,
)


@pytest.fixture
def chain() -> CausalDAG:
    return CausalDAG(["x", "m", "y"], [("x", "m"), ("m", "y")])


@pytest.fixture
def collider() -> CausalDAG:
    return CausalDAG(["x", "c", "y", "d"],
                     [("x", "c"), ("y", "c"), ("c", "d")])


@pytest.fixture
def confounder() -> CausalDAG:
    return CausalDAG(["z", "x", "y"], [("z", "x"), ("z", "y")])


def test_chain_blocked_by_mediator(chain):
    assert not d_separated(chain, "x", "y")
    assert d_separated(chain, "x", "y", ["m"])


def test_collider_blocks_marginally(collider):
    assert d_separated(collider, "x", "y")
    assert not d_separated(collider, "x", "y", ["c"])


def test_conditioning_on_collider_descendant_opens_path(collider):
    assert not d_separated(collider, "x", "y", ["d"])


def test_confounder_blocked_by_conditioning(confounder):
    assert not d_separated(confounder, "x", "y")
    assert d_separated(confounder, "x", "y", ["z"])


def test_same_node_is_never_separated(chain):
    assert not d_separated(chain, "x", "x")


def test_conditioning_on_endpoint_rejected(chain):
    with pytest.raises(ValueError):
        d_separated(chain, "x", "y", ["x"])


def test_disconnected_nodes_are_separated():
    dag = CausalDAG(["a", "b"], [])
    assert d_separated(dag, "a", "b")


def test_possible_d_sep_contains_collider_path_nodes():
    graph = MixedGraph(["x", "a", "b", "y"])
    # x *-> a <-* b, b adjacent to y: a is a collider on the path from x.
    graph.add_edge("x", "a", Mark.CIRCLE, Mark.ARROW)
    graph.add_edge("b", "a", Mark.CIRCLE, Mark.ARROW)
    graph.add_edge("b", "y", Mark.CIRCLE, Mark.CIRCLE)
    pdsep = possible_d_sep(graph, "x", "y")
    assert "a" in pdsep
    assert "x" not in pdsep and "y" not in pdsep


def test_possible_d_sep_stops_at_non_collider_non_triangle():
    graph = MixedGraph(["x", "a", "b"])
    graph.add_edge("x", "a", Mark.CIRCLE, Mark.CIRCLE)
    graph.add_edge("a", "b", Mark.CIRCLE, Mark.CIRCLE)
    # a is neither a collider nor in a triangle, so b is unreachable.
    pdsep = possible_d_sep(graph, "x", "zzz") if graph.has_node("zzz") else \
        possible_d_sep(graph, "x", "b")
    assert "a" in pdsep


def _reference_possible_d_sep(graph: MixedGraph, x: str, y: str) -> set[str]:
    """Possible-D-Sep(x, y) walked step by step over ``(previous, current)``
    pairs: go on through a collider or a triangle, leave out x and y."""
    found: set[str] = set()
    seen: set[tuple[str, str]] = set()
    frontier = [(x, n) for n in graph.neighbors(x)]
    while frontier:
        prev, current = frontier.pop()
        if (prev, current) in seen:
            continue
        seen.add((prev, current))
        found.add(current)
        for nxt in graph.neighbors(current):
            collider = (graph.mark(prev, current) is Mark.ARROW
                        and graph.mark(nxt, current) is Mark.ARROW)
            if nxt != prev and (graph.has_edge(prev, nxt) or collider):
                frontier.append((current, nxt))
    return found - {x, y}


@st.composite
def _marked_graphs(draw):
    """A graph over up to seven nodes with random end marks, and an order
    in which to remove some of its edges."""
    nodes = [f"v{k}" for k in range(draw(st.integers(3, 7)))]
    graph = MixedGraph(nodes)
    marks = st.sampled_from([Mark.CIRCLE, Mark.ARROW, Mark.TAIL])
    for u, v in itertools.combinations(nodes, 2):
        if draw(st.booleans()):
            graph.add_edge(u, v, draw(marks), draw(marks))
    edges = [(edge.u, edge.v) for edge in graph.edges()]
    removals = draw(st.permutations(edges)) if edges else []
    return graph, removals[:draw(st.integers(0, len(removals)))]


@settings(max_examples=150, deadline=None)
@given(_marked_graphs())
def test_possible_d_sep_is_the_reach_without_the_ends(case):
    """``possible_d_sep(g, x, y) == possible_d_sep_reach(g, x) - {x, y}``
    and equals the step-by-step walk, before and after edge removals."""
    graph, removals = case
    for removed in [None, *removals]:
        if removed is not None:
            graph.remove_edge(*removed)
        for x, y in itertools.permutations(graph.nodes, 2):
            got = possible_d_sep(graph, x, y)
            assert got == possible_d_sep_reach(graph, x) - {x, y}
            assert got == _reference_possible_d_sep(graph, x, y)


@settings(max_examples=150, deadline=None)
@given(_marked_graphs())
def test_kept_reach_sets_follow_edge_removals(case):
    """The per-node sets FCI pruning keeps between removals equal fresh
    walks after every removal."""
    graph, removals = case
    reach = _Reach(graph)
    for removed in [None, *removals]:
        if removed is not None:
            reach.remove_edge(*removed)
            assert not graph.has_edge(*removed)
        for node in graph.nodes:
            assert reach(node) == possible_d_sep_reach(graph, node)
