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

from repro.discovery.constraints import StructuralConstraints
from repro.discovery.skeleton import (SkeletonResult, SkeletonSpace,
                                      learn_skeleton)
from repro.graph.edges import Mark
from repro.graph.mixed_graph import MixedGraph
from repro.graph.separation import possible_d_sep
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

    Returns the number of CI tests performed.  ``max_subsets_per_edge`` caps
    the number of conditioning subsets examined per edge so the phase stays
    tractable on dense intermediate graphs.  A test with ``test_index`` is
    run on column indices, so it meets the decisions the skeleton search
    stored under the same keys.
    """
    tests = 0
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
    for edge in list(graph.edges()):
        x, y = edge.u, edge.v
        if not graph.has_edge(x, y) or frozenset((x, y)) in required:
            continue
        candidates = sorted((possible_d_sep(graph, x, y)
                             | possible_d_sep(graph, y, x)) & allowed)
        found = False
        i, j = column[x], column[y]
        for size in range(1, min(len(candidates), max_condition_size) + 1):
            subsets = itertools.islice(
                itertools.combinations(candidates, size), max_subsets_per_edge)
            for subset in subsets:
                tests += 1
                if test(i, j, [column[c] for c in subset]).independent:
                    graph.remove_edge(x, y)
                    separating_sets[frozenset((x, y))] = set(subset)
                    found = True
                    break
            if found:
                break
    return tests


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
