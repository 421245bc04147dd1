"""Fast Causal Inference (FCI) structure learning.

FCI extends the PC skeleton search to settings with unobserved confounders:
after the skeleton and collider orientation, a second pruning phase tests
edges against subsets of the Possible-D-Sep sets, and a set of orientation
rules (Zhang's rules R1-R3; R4, which needs discriminating paths, is not
implemented) propagates the collider information through the graph.  The
output is a partial ancestral graph (PAG) whose circle marks are later
resolved by the entropic orienter.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, MutableMapping
from dataclasses import dataclass

import numpy as np

from repro.discovery.constraints import StructuralConstraints
from repro.discovery.skeleton import (SkeletonResult, SkeletonSpace,
                                      learn_skeleton)
from repro.graph.edges import Mark
from repro.graph.mixed_graph import MixedGraph
from repro.graph.separation import possible_d_sep_reach
from repro.stats.independence import CITest


@dataclass
class FCIResult:
    """A PAG plus the separating sets discovered along the way."""

    pag: MixedGraph
    separating_sets: MutableMapping[frozenset[str], set[str]]
    tests_performed: int


# ---------------------------------------------------------------------------
# Collider orientation (rule R0)
# ---------------------------------------------------------------------------
def orient_colliders(graph: MixedGraph,
                     separating_sets: Mapping[frozenset[str], set[str]],
                     constraints: StructuralConstraints | None = None) -> None:
    """Orient unshielded triples ``x *-* z *-* y`` as colliders.

    For every unshielded triple where ``z`` is not in the separating set of
    ``x`` and ``y``, both marks at ``z`` become arrowheads (``x *-> z <-* y``).
    Orientations that would violate structural constraints (an arrow into a
    configuration option) are skipped.
    """
    for z in graph.nodes:
        neighbours = sorted(graph.neighbors(z))
        for x, y in itertools.combinations(neighbours, 2):
            if graph.has_edge(x, y):
                continue  # shielded triple
            sep = separating_sets.get(frozenset((x, y)))
            if sep is None or z in sep:
                continue
            for source in (x, y):
                if _arrow_allowed(constraints, source, z):
                    graph.set_mark(source, z, Mark.ARROW)


def _arrow_allowed(constraints: StructuralConstraints | None,
                   source: str, target: str) -> bool:
    """May the mark at ``target`` on edge ``source *-* target`` be an arrow?

    An arrowhead at ``target`` asserts that ``target`` does not cause
    ``source``; it is disallowed only when the constraints say the *reverse*
    direction is mandatory — in practice, when ``target`` is a configuration
    option (options are exogenous, so edges must point out of them).
    """
    if constraints is None:
        return True
    return constraints.direction_allowed(source, target) or \
        not constraints.direction_allowed(target, source)


def _tail_allowed(constraints: StructuralConstraints | None,
                  source: str, target: str) -> bool:
    """May the mark at ``source`` on edge ``source *-* target`` be a tail?"""
    if constraints is None:
        return True
    return constraints.direction_allowed(source, target)


# ---------------------------------------------------------------------------
# Zhang orientation rules R1 - R3
# ---------------------------------------------------------------------------
def apply_orientation_rules(graph: MixedGraph,
                            constraints: StructuralConstraints | None = None,
                            max_iterations: int = 100) -> None:
    """Apply FCI orientation rules R1-R3 until a fixed point is reached.

    Zhang's R4 (discriminating paths) is not implemented, so the PAG can
    keep circle marks that a complete rule set would orient.
    """
    for _ in range(max_iterations):
        changed = False
        changed |= _rule_r1(graph, constraints)
        changed |= _rule_r2(graph, constraints)
        changed |= _rule_r3(graph, constraints)
        if not changed:
            break


def _rule_r1(graph: MixedGraph,
             constraints: StructuralConstraints | None) -> bool:
    """R1: if ``a *-> b o-* c`` and a, c not adjacent, orient ``b --> c``.

    The circle of the rule sits at the *b* end of the ``b - c`` edge; the
    orientation makes ``b`` a non-collider on the triple, i.e. ``b -> c``.
    """
    changed = False
    for b in graph.nodes:
        for a in graph.neighbors(b):
            if graph.mark(a, b) is not Mark.ARROW:
                continue
            for c in graph.neighbors(b):
                if c == a or graph.has_edge(a, c):
                    continue
                # mark at b on edge {b, c} must still be a circle.
                if graph.mark(c, b) is Mark.CIRCLE:
                    if not _arrow_allowed(constraints, b, c):
                        continue
                    graph.set_mark(b, c, Mark.ARROW)
                    if _tail_allowed(constraints, b, c):
                        graph.set_mark(c, b, Mark.TAIL)
                    changed = True
    return changed


def _rule_r2(graph: MixedGraph,
             constraints: StructuralConstraints | None) -> bool:
    """R2: if ``a -> b *-> c`` or ``a *-> b -> c`` and ``a *-o c``, orient
    the mark at ``c`` on edge ``a *-* c`` as an arrowhead."""
    changed = False
    for a in graph.nodes:
        for c in graph.neighbors(a):
            if graph.mark(a, c) is not Mark.CIRCLE:
                continue
            for b in graph.neighbors(a) & graph.neighbors(c):
                chain_one = (graph.mark(b, a) is Mark.TAIL
                             and graph.mark(a, b) is Mark.ARROW
                             and graph.mark(b, c) is Mark.ARROW)
                chain_two = (graph.mark(a, b) is Mark.ARROW
                             and graph.mark(c, b) is Mark.TAIL
                             and graph.mark(b, c) is Mark.ARROW)
                if (chain_one or chain_two) and _arrow_allowed(constraints, a, c):
                    graph.set_mark(a, c, Mark.ARROW)
                    changed = True
                    break
    return changed


def _rule_r3(graph: MixedGraph,
             constraints: StructuralConstraints | None) -> bool:
    """R3: if ``a *-> b <-* c``, ``a *-o d o-* c``, a, c not adjacent and
    ``d *-o b``, orient ``d *-> b``."""
    changed = False
    for b in graph.nodes:
        for d in graph.neighbors(b):
            if graph.mark(d, b) is not Mark.CIRCLE:
                continue
            candidates = sorted(graph.neighbors(b) & graph.neighbors(d))
            for a, c in itertools.combinations(candidates, 2):
                if graph.has_edge(a, c):
                    continue
                collider = (graph.mark(a, b) is Mark.ARROW
                            and graph.mark(c, b) is Mark.ARROW)
                circles = (graph.mark(a, d) is Mark.CIRCLE
                           and graph.mark(c, d) is Mark.CIRCLE)
                if collider and circles and _arrow_allowed(constraints, d, b):
                    graph.set_mark(d, b, Mark.ARROW)
                    changed = True
                    break
    return changed


# ---------------------------------------------------------------------------
# Possible-D-Sep pruning
# ---------------------------------------------------------------------------
def _pdsep_prune(graph: MixedGraph, ci_test: CITest,
                 separating_sets: MutableMapping[frozenset[str], set[str]],
                 max_condition_size: int, constraints,
                 max_subsets_per_edge: int = 50) -> int:
    """Second FCI pruning phase using Possible-D-Sep sets.

    Every edge of the graph as it stands, in ``MixedGraph.edges()`` order,
    is tested against the subsets of its current Possible-D-Sep
    candidates (the conditioning-allowed nodes of Possible-D-Sep(x, y) and
    Possible-D-Sep(y, x), in name order), size by size from 1 up to
    ``max_condition_size`` and at most ``max_subsets_per_edge`` subsets a
    size (the ``max_combinations`` idiom), up to the first independent
    one; the edge is then removed with that separating set.  Returns the
    number of CI tests performed.  A test with ``test_index`` is run on
    column indices.

    Removing an edge only shrinks Possible-D-Sep sets, so each edge's
    candidates under the graph before pruning hold all it can be tested
    against.  With ``singleton_bands`` their ``|Z| = 1`` tests are decided
    in one block; the walk over the edges takes, for each, the candidates
    still in its current sets, so it performs exactly the one-at-a-time
    tests.  A ``-1`` decision, a subset of two or more, and every test of
    a test without ``singleton_bands`` goes to ``test_index`` (or
    ``test``) when the walk reaches it.  The sets come from
    :func:`possible_d_sep_reach`, kept per node and walked again only
    after a removal that can change them.
    """
    if max_condition_size < 1:
        return 0
    required = set()
    if constraints is not None:
        required = {frozenset(edge) for edge in constraints.required_edges}
    if hasattr(ci_test, "test_index"):
        test = ci_test.test_index
        column = {name: ci_test.column_index(name) for name in graph.nodes}
    else:
        test = ci_test.test
        column = {name: name for name in graph.nodes}
    allowed = {name for name in graph.nodes
               if constraints is None or constraints.conditioning_allowed(name)}
    reach = _Reach(graph)
    edges = [(edge.u, edge.v) for edge in graph.edges()
             if frozenset((edge.u, edge.v)) not in required]
    candidates = [sorted(((reach(x) | reach(y)) - {x, y}) & allowed)
                  for x, y in edges]
    bounds = list(itertools.accumulate(map(len, candidates), initial=0))
    if hasattr(ci_test, "singleton_bands") and bounds[-1]:
        sizes = np.diff(bounds)
        decisions = ci_test.singleton_bands(
            np.repeat([column[x] for x, _ in edges], sizes),
            np.repeat([column[y] for _, y in edges], sizes),
            np.array([column[c] for names in candidates for c in names],
                     dtype=np.intp)).band.tolist()
    else:
        decisions = [-1] * bounds[-1]
    tests = 0
    for e, (x, y) in enumerate(edges):
        near_x, near_y = reach(x), reach(y)
        live = [(at, name) for at, name in enumerate(candidates[e], bounds[e])
                if name in near_x or name in near_y]
        names = [name for _, name in live]
        i, j = column[x], column[y]
        found = None
        for at, name in live[:max_subsets_per_edge]:
            tests += 1
            decision = decisions[at]
            if decision < 0:
                decision = test(i, j, [column[name]]).independent
            if decision:
                found = (name,)
                break
        for size in range(2, min(len(names), max_condition_size) + 1):
            if found is not None:
                break
            for subset in itertools.islice(itertools.combinations(names, size),
                                           max_subsets_per_edge):
                tests += 1
                if test(i, j, [column[c] for c in subset]).independent:
                    found = subset
                    break
        if found is not None:
            reach.remove_edge(x, y)
            separating_sets[frozenset((x, y))] = set(found)
    return tests


class _Reach:
    """:func:`possible_d_sep_reach` of every node of ``graph``, walked on
    first use and again only after :meth:`remove_edge` removed an edge
    with both ends in the node's set (or at the node itself)."""

    def __init__(self, graph: MixedGraph) -> None:
        self._graph = graph
        self._sets: dict[str, set[str]] = {}

    def __call__(self, node: str) -> set[str]:
        found = self._sets.get(node)
        if found is None:
            found = self._sets[node] = possible_d_sep_reach(self._graph, node)
        return found

    def remove_edge(self, x: str, y: str) -> None:
        self._graph.remove_edge(x, y)
        self._sets = {node: found for node, found in self._sets.items()
                      if not ((node == x or x in found)
                              and (node == y or y in found))}


# ---------------------------------------------------------------------------
# Full FCI
# ---------------------------------------------------------------------------
def fci(variables: list[str], ci_test: CITest,
        constraints: StructuralConstraints | None = None,
        max_condition_size: int = 3,
        space: SkeletonSpace | None = None) -> FCIResult:
    """Run FCI and return a PAG.

    Steps: PC-style skeleton, collider orientation, Possible-D-Sep pruning,
    re-initialisation of marks, collider re-orientation and the R1-R3
    orientation rules, following the standard FCI recipe.  ``space`` is
    handed to :func:`learn_skeleton`.
    """
    skeleton: SkeletonResult = learn_skeleton(
        variables, ci_test, constraints=constraints,
        max_condition_size=max_condition_size, space=space)
    graph = skeleton.graph
    sepsets = skeleton.separating_sets
    tests = skeleton.tests_performed

    orient_colliders(graph, sepsets, constraints)
    tests += _pdsep_prune(graph, ci_test, sepsets, max_condition_size,
                          constraints)

    # Reset all marks to circles, then re-orient on the pruned skeleton.
    for edge in graph.edges():
        graph.set_mark(edge.u, edge.v, Mark.CIRCLE)
        graph.set_mark(edge.v, edge.u, Mark.CIRCLE)
    orient_colliders(graph, sepsets, constraints)
    apply_orientation_rules(graph, constraints)
    _apply_constraint_orientations(graph, constraints)

    return FCIResult(pag=graph, separating_sets=sepsets,
                     tests_performed=tests)


def _apply_constraint_orientations(graph: MixedGraph,
                                   constraints: StructuralConstraints | None
                                   ) -> None:
    """Force marks implied by structural constraints.

    Any edge incident to a configuration option must point out of the option
    (options are exogenous); any edge incident to an objective must point into
    the objective (objectives are sinks).  These are background-knowledge
    orientations in the sense of Meek/FCI with tiered knowledge.
    """
    if constraints is None:
        return
    for edge in graph.edges():
        for u, v in ((edge.u, edge.v), (edge.v, edge.u)):
            allowed_uv = constraints.direction_allowed(u, v)
            allowed_vu = constraints.direction_allowed(v, u)
            if allowed_uv and not allowed_vu:
                graph.set_mark(v, u, Mark.TAIL)
                graph.set_mark(u, v, Mark.ARROW)
