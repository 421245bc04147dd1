"""Skeleton recovery (step 1 and 2 of causal model learning in Fig. 9).

Starting from a fully connected graph restricted by the structural
constraints ("no connections between configuration options"), edges are pruned
with conditional-independence tests of increasing conditioning-set size, in
the style of the PC/FCI skeleton phase.  The separating sets found along the
way are recorded because the collider-orientation step of FCI needs them.

The incremental re-learning of Stage IV runs this same search from the
fully connected graph; what makes it cheap is the
:class:`~repro.stats.independence.CachedCITest` that replays every
non-borderline decision from the previous data epoch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.discovery.constraints import StructuralConstraints
from repro.graph.edges import Mark
from repro.graph.mixed_graph import MixedGraph
from repro.stats.independence import CITest


@dataclass
class SkeletonResult:
    """Skeleton plus bookkeeping produced by :func:`learn_skeleton`."""

    graph: MixedGraph
    separating_sets: dict[frozenset[str], set[str]] = field(default_factory=dict)
    tests_performed: int = 0

    def separating_set(self, x: str, y: str) -> set[str] | None:
        return self.separating_sets.get(frozenset((x, y)))


def initial_graph(variables: list[str],
                  constraints: StructuralConstraints | None) -> MixedGraph:
    """Fully connected circle-circle graph respecting adjacency constraints."""
    graph = MixedGraph(variables)
    for u, v in itertools.combinations(variables, 2):
        if constraints is None or constraints.adjacency_allowed(u, v):
            graph.add_edge(u, v, Mark.CIRCLE, Mark.CIRCLE)
    return graph


def learn_skeleton(variables: list[str], ci_test: CITest,
                   constraints: StructuralConstraints | None = None,
                   max_condition_size: int = 3,
                   max_subsets_per_edge: int = 50) -> SkeletonResult:
    """PC-style skeleton search.

    For conditioning-set sizes ``0 .. max_condition_size`` every remaining
    edge ``x - y`` is tested against subsets of the current adjacency of
    ``x`` (and of ``y``); if any test declares independence the edge is
    removed and the separating set recorded.

    ``max_condition_size`` bounds the cost; the causal performance models of
    the paper are sparse (average node degree below 4 even for SQLite's 242
    options), so small conditioning sets suffice in practice.
    ``max_subsets_per_edge`` caps the number of conditioning subsets examined
    per edge per level, which keeps the search tractable while the graph is
    still dense in the first iterations.
    """
    graph = initial_graph(variables, constraints)
    result = SkeletonResult(graph=graph)
    required = set()
    if constraints is not None:
        required = {frozenset(edge) for edge in constraints.required_edges}

    batch_test = getattr(ci_test, "test_batch", None)

    for level in range(max_condition_size + 1):
        removed_any = False
        if level == 0 and batch_test is not None:
            # Every level-0 test shares the empty conditioning set, so the
            # whole sweep collapses into one vectorized batch.
            pairs = [(e.u, e.v) for e in graph.edges()
                     if frozenset((e.u, e.v)) not in required]
            outcomes = batch_test(pairs, ())
            result.tests_performed += len(pairs)
            for (x, y), outcome in zip(pairs, outcomes):
                if outcome.independent:
                    graph.remove_edge(x, y)
                    result.separating_sets[frozenset((x, y))] = set()
                    removed_any = True
            continue
        for edge in list(graph.edges()):
            x, y = edge.u, edge.v
            if not graph.has_edge(x, y):
                continue
            if frozenset((x, y)) in required:
                continue
            neighbours = ((graph.neighbors(x) - {y})
                          | (graph.neighbors(y) - {x}))
            if constraints is not None:
                neighbours = {n for n in neighbours
                              if constraints.conditioning_allowed(n)}
            if len(neighbours) < level:
                continue
            subsets = itertools.islice(
                itertools.combinations(sorted(neighbours), level),
                max_subsets_per_edge)
            for subset in subsets:
                result.tests_performed += 1
                outcome = ci_test.test(x, y, list(subset))
                if outcome.independent:
                    graph.remove_edge(x, y)
                    result.separating_sets[frozenset((x, y))] = set(subset)
                    removed_any = True
                    break
        # Level 0 always proceeds to level 1 even when nothing was removed
        # (the marginal sweep says nothing about conditional independencies);
        # from level 1 onward an empty level means no larger conditioning set
        # can succeed either, so the search stops.
        if level > 0 and not removed_any:
            break
    return result
