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

The search runs on integer indices.  :class:`SkeletonSpace` numbers the
variables in sorted-name order and holds what depends only on the variable
set and the constraints: the allowed pairs, the required pairs and the
variables a conditioning set may contain, and the testable pairs as
column-index arrays.  A learner builds it once per session, not once per
relearn.  Level 0 is one array call,
:meth:`~repro.stats.independence.CachedCITest.marginal_arrays`, which
replays the marginal decisions from a dense per-pair table.  From level 1
on, adjacency is a list of int sets, and conditioning sets are tuples of the
CI test's column indices, so a test reaches
:meth:`~repro.stats.independence.CachedCITest.test_index` without any name
lookups.  The :class:`MixedGraph` is built once, at the
end, from the surviving pairs.  Pairs are visited in the order
``MixedGraph.edges()`` visits the fully connected graph, and sorting local
ids sorts names.  Every CI test is therefore issued in the order, and with
the conditioning tuple, of a name-based traversal of that graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

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


class SkeletonSpace:
    """A variable set under structural constraints, numbered for the search.

    Local id ``k`` stands for ``names[k]``, the ``k``-th variable in sorted
    name order.  ``pairs`` lists the constraint-allowed pairs ``(u, v)`` in
    the order ``MixedGraph.edges()`` visits the fully connected graph over
    ``variables``: ``u`` by position in ``variables``, then ``v`` by name,
    with ``u`` before ``v`` in ``variables``.  ``required`` holds the pairs
    the constraints force into the graph (never tested), ``testable`` the
    other pairs in visiting order, and ``conditioning`` the ids allowed in a
    conditioning set (``None`` when every variable is).  ``pair_names`` maps
    each pair to its separating-set key, ``frozenset`` of the two names, and
    ``testable_names`` lists those keys in ``testable`` order.
    """

    def __init__(self, variables: Sequence[str],
                 constraints: StructuralConstraints | None = None) -> None:
        self.variables = list(variables)
        self.names = sorted(self.variables)
        local = {name: k for k, name in enumerate(self.names)}
        self.position = [0] * len(self.names)
        for p, name in enumerate(self.variables):
            self.position[local[name]] = p
        allowed = (constraints.adjacency_allowed if constraints is not None
                   else lambda u, v: True)
        self.pairs = [(local[u], v)
                      for p, u in enumerate(self.variables)
                      for v, name in enumerate(self.names)
                      if self.position[v] > p and allowed(u, name)]
        self.pair_names = {(u, v): frozenset((self.names[u], self.names[v]))
                           for u, v in self.pairs}
        required = set() if constraints is None else {
            frozenset(edge) for edge in constraints.required_edges}
        self.required = frozenset(pair for pair, key in self.pair_names.items()
                                  if key in required)
        self.testable = [pair for pair in self.pairs
                         if pair not in self.required]
        self.testable_names = [self.pair_names[pair]
                               for pair in self.testable]
        self._testable_ids = np.array(self.testable,
                                      dtype=np.intp).reshape(-1, 2)
        self.conditioning = None if constraints is None else frozenset(
            k for k, name in enumerate(self.names)
            if constraints.conditioning_allowed(name))

    def testable_columns(self, columns: Sequence[int]
                         ) -> tuple[np.ndarray, np.ndarray]:
        """``testable`` as two column-index arrays, given each local id's
        column: two gathers from id arrays built once per space."""
        first, second = self._testable_ids.T
        column = np.asarray(columns, dtype=np.intp)
        return column[first], column[second]

    def graph(self, pairs: Sequence[tuple[int, int]]) -> MixedGraph:
        """Circle-circle graph over ``variables`` with the given pairs.

        Edges are added in ``itertools.combinations(variables, 2)`` order,
        whatever the order of ``pairs``.
        """
        position, names = self.position, self.names
        graph = MixedGraph(self.variables)
        for u, v in sorted(pairs, key=lambda p: (position[p[0]],
                                                 position[p[1]])):
            graph.add_edge(names[u], names[v], Mark.CIRCLE, Mark.CIRCLE)
        return graph


def initial_graph(variables: list[str],
                  constraints: StructuralConstraints | None) -> MixedGraph:
    """Fully connected circle-circle graph respecting adjacency constraints."""
    space = SkeletonSpace(variables, constraints)
    return space.graph(space.pairs)


def learn_skeleton(variables: list[str], ci_test: CITest,
                   constraints: StructuralConstraints | None = None,
                   max_condition_size: int = 3,
                   max_subsets_per_edge: int = 50,
                   space: SkeletonSpace | None = None) -> SkeletonResult:
    """PC-style skeleton search.

    For conditioning-set sizes ``0 .. max_condition_size`` every remaining
    edge ``x - y`` is tested against subsets of the current adjacency of
    ``x`` (and of ``y``); if any test declares independence the edge is
    removed and the separating set recorded.  Within a level, edges are
    visited in ``MixedGraph.edges()`` order and subsets in name order, and
    an edge removed earlier in the level shrinks the adjacency of the edges
    tested after it.  Level 0 is one ``marginal_arrays`` call over the
    testable pairs (``test_batch`` for a name-based test): a boolean array
    whose false entries are the surviving edges, in visiting order, and
    whose true entries get the empty separating set.

    ``max_condition_size`` bounds the cost; the causal performance models of
    the paper are sparse (average node degree below 4 even for SQLite's 242
    options), so small conditioning sets suffice in practice.
    ``max_subsets_per_edge`` caps the number of conditioning subsets examined
    per edge per level, which keeps the search tractable while the graph is
    still dense in the first iterations.  ``space`` is the
    :class:`SkeletonSpace` of ``variables`` and ``constraints``; callers that
    relearn over the same variables pass it to skip rebuilding it.
    """
    if space is None:
        space = SkeletonSpace(variables, constraints)
    names = space.names
    if hasattr(ci_test, "marginal_arrays"):
        columns = [ci_test.column_index(name) for name in names]
        test = ci_test.test_index
        p_values, _ = ci_test.marginal_arrays(
            *space.testable_columns(columns))
        independent = p_values > ci_test.alpha
    else:
        # A name-based test: its "columns" are the names themselves.
        columns = names
        test = ci_test.test
        pairs = [(names[u], names[v]) for u, v in space.testable]
        test_batch = getattr(ci_test, "test_batch", None)
        outcomes = (test_batch(pairs, ()) if test_batch is not None
                    else [test(x, y, ()) for x, y in pairs])
        independent = np.array([outcome.independent for outcome in outcomes],
                               dtype=bool)
    tests = len(space.testable)
    removed = np.flatnonzero(independent).tolist()
    # Required pairs are never tested, so ``edges`` holds only the
    # surviving testable pairs, in visiting order.
    edges = [space.testable[k] for k in np.flatnonzero(~independent).tolist()]
    adjacency: list[set[int]] = [set() for _ in names]
    for u, v in (*space.required, *edges):
        adjacency[u].add(v)
        adjacency[v].add(u)
    conditioning = space.conditioning
    # Separating sets of levels >= 1 as column tuples, in removal order.
    separating: dict[tuple[int, int], tuple[int, ...]] = {}

    # Level 0 always proceeds to level 1 (the marginal sweep says nothing
    # about conditional independencies); from level 1 onward an empty level
    # means no larger conditioning set can succeed either.
    for level in range(1, max_condition_size + 1):
        edges = [(u, v) for u, v in edges if v in adjacency[u]]
        removed_any = False
        for u, v in edges:
            neighbours = adjacency[u] | adjacency[v]
            neighbours.discard(u)
            neighbours.discard(v)
            if conditioning is not None:
                neighbours &= conditioning
            if len(neighbours) < level:
                continue
            x, y = columns[u], columns[v]
            subsets = itertools.islice(
                itertools.combinations([columns[k] for k in sorted(neighbours)],
                                       level),
                max_subsets_per_edge)
            for subset in subsets:
                tests += 1
                if test(x, y, subset).independent:
                    adjacency[u].discard(v)
                    adjacency[v].discard(u)
                    separating[(u, v)] = subset
                    removed_any = True
                    break
        if not removed_any:
            break

    column_names = dict(zip(columns, names))
    separating_sets = {space.testable_names[k]: set() for k in removed}
    for pair, subset in separating.items():
        separating_sets[space.pair_names[pair]] = {column_names[c]
                                                   for c in subset}
    return SkeletonResult(
        graph=space.graph([*space.required,
                           *((u, v) for u, v in edges if v in adjacency[u])]),
        separating_sets=separating_sets,
        tests_performed=tests)
