"""Skeleton recovery (step 1 and 2 of causal model learning in Fig. 9).

Starting from a fully connected graph restricted by the structural
constraints ("no connections between configuration options"), edges are pruned
with conditional-independence tests of increasing conditioning-set size, in
the style of the PC/FCI skeleton phase.  The separating sets found along the
way are recorded because the collider-orientation step of FCI needs them.

The incremental re-learning of Stage IV runs this same search from the
fully connected graph on the grown data, so an update decides every test
on the data as it is now, exactly as a cold learn would.

The search runs on integer indices.  :class:`SkeletonSpace` numbers the
variables in sorted-name order and holds what depends only on the variable
set and the constraints: the allowed pairs, the required pairs and the
variables a conditioning set may contain, and the testable pairs as
column-index arrays.  A learner builds it once per session, not once per
relearn.  Level 0 is one array call,
:meth:`~repro.stats.independence.MixedCITest.marginal_bands`, which
decides every marginal test from the cached covariance; the pairs it
removes keep their empty separating sets as a view over its result
(:class:`SeparatingSets`).  From level 1 on, adjacency is a list of int
sets and conditioning sets are tuples of the CI test's column indices; a
removed pair's tuple is named only when FCI reads that pair.
Level 1 decides every edge's candidates in array blocks
(:meth:`~repro.stats.independence.MixedCITest.singleton_bands`) and
walks them in visiting order; later levels reach
:meth:`~repro.stats.independence.CachedCITest.test_index` one test at a
time, without any name lookups.  The :class:`MixedGraph` is built once,
at the end, from the surviving pairs.  Pairs are visited in the order
``MixedGraph.edges()`` visits the fully connected graph, and sorting local
ids sorts names.  Every CI test is therefore performed in the order, and
with the conditioning tuple, of a name-based traversal of that graph.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, MutableMapping
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.discovery.constraints import StructuralConstraints
from repro.graph.edges import Mark
from repro.graph.mixed_graph import MixedGraph
from repro.stats.independence import CITest


class SeparatingSets(MutableMapping):
    """Separating sets keyed by the unordered pair of names.

    The pairs a level-0 sweep removed all have the empty separating set;
    they stay the sweep's boolean mask over a :class:`SkeletonSpace`'s
    ``testable`` pairs and are read through it, so a relearn builds no set
    for them.  Reading one gives a new empty set.  The pairs later levels
    removed arrive as the search's ``pair -> column tuple`` dict, held in
    removal order; a pair's tuple is named, turned into the set of its
    variables' names, the first time that pair is read, so a relearn names
    only the sets FCI reads (the pairs of unshielded triples).  Sets
    stored later follow them.  Iteration yields those pairs in that order,
    then the level-0 pairs.  Storing or deleting a level-0 pair takes it
    out of the mask.
    """

    def __init__(self, space: SkeletonSpace | None = None,
                 marginal: np.ndarray | None = None,
                 removed: dict[tuple[int, int], tuple] | None = None,
                 name_of: dict | None = None) -> None:
        self._names = [] if space is None else space.testable_names
        self._position = {} if space is None else space.testable_position
        self._marginal = (np.zeros(0, dtype=bool) if marginal is None
                          else marginal)
        self._sets: dict[frozenset[str], set[str] | tuple] = {
            space.pair_names[pair]: subset
            for pair, subset in (removed or {}).items()}
        self._name_of = name_of

    def _marginal_at(self, key: frozenset[str]) -> int | None:
        k = self._position.get(key)
        return k if k is not None and self._marginal[k] else None

    def __getitem__(self, key: frozenset[str]) -> set[str]:
        found = self.get(key)
        if found is None:
            raise KeyError(key)
        return found

    def get(self, key: frozenset[str], default=None):
        """The separating set of ``key``, or ``default``."""
        found = self._sets.get(key)
        if isinstance(found, tuple):
            found = self._sets[key] = set(map(self._name_of.__getitem__,
                                              found))
        if found is not None:
            return found
        return default if self._marginal_at(key) is None else set()

    def __setitem__(self, key: frozenset[str], value: set[str]) -> None:
        k = self._marginal_at(key)
        if k is not None:
            self._marginal[k] = False
        self._sets[key] = value

    def __delitem__(self, key: frozenset[str]) -> None:
        k = self._marginal_at(key)
        if k is None:
            del self._sets[key]
        else:
            self._marginal[k] = False

    def __iter__(self) -> Iterator[frozenset[str]]:
        yield from self._sets
        names = self._names
        for k in np.flatnonzero(self._marginal).tolist():
            yield names[k]

    def __len__(self) -> int:
        return len(self._sets) + int(np.count_nonzero(self._marginal))


@dataclass
class SkeletonResult:
    """Skeleton plus bookkeeping produced by :func:`learn_skeleton`."""

    graph: MixedGraph
    separating_sets: SeparatingSets = field(default_factory=SeparatingSets)
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
    each pair to its separating-set key, ``frozenset`` of the two names,
    ``testable_names`` lists those keys in ``testable`` order and
    ``testable_position`` maps them back to it.  The pairs come out of
    boolean matrices over the ids
    (:meth:`StructuralConstraints.adjacency_matrices`), one array pass,
    not one ``adjacency_allowed`` call per pair.
    """

    def __init__(self, variables: Sequence[str],
                 constraints: StructuralConstraints | None = None) -> None:
        self.variables = list(variables)
        self.names = sorted(self.variables)
        size = len(self.names)
        local = {name: k for k, name in enumerate(self.names)}
        self.position = [0] * size
        for p, name in enumerate(self.variables):
            self.position[local[name]] = p
        if constraints is None:
            allowed = np.ones((size, size), dtype=bool)
            required = np.zeros((size, size), dtype=bool)
        else:
            allowed, required = constraints.adjacency_matrices(self.names)
        # Row p holds the ids of the variables after variables[p]; the
        # nonzero entries come out row by row, ids ascending in a row.
        position = np.asarray(self.position, dtype=np.intp)
        by_position = np.argsort(position)
        rows, second = np.nonzero(
            (position > np.arange(size)[:, None]) & allowed[by_position])
        first = by_position[rows]
        self.pairs = list(zip(first.tolist(), second.tolist()))
        keys = list(map(frozenset, zip(
            [self.names[u] for u in first.tolist()],
            [self.names[v] for v in second.tolist()])))
        self.pair_names = dict(zip(self.pairs, keys))
        forced = required[first, second]
        self.required = frozenset(itertools.compress(self.pairs,
                                                     forced.tolist()))
        kept = (~forced).tolist()
        self.testable = list(itertools.compress(self.pairs, kept))
        self.testable_names = list(itertools.compress(keys, kept))
        self.testable_position = {key: k for k, key
                                  in enumerate(self.testable_names)}
        self._testable_ids = np.stack([first[~forced], second[~forced]],
                                      axis=1)
        self._required_ids = np.array(sorted(self.required),
                                      dtype=np.intp).reshape(-1, 2)
        self.conditioning = None if constraints is None else frozenset(
            k for k, name in enumerate(self.names)
            if constraints.conditioning_allowed(name))
        self._conditioning_mask = np.ones(len(self.names), dtype=bool)
        if self.conditioning is not None:
            self._conditioning_mask[:] = False
            self._conditioning_mask[list(self.conditioning)] = True

    def testable_columns(self, columns: Sequence[int]
                         ) -> tuple[np.ndarray, np.ndarray]:
        """``testable`` as two column-index arrays, given each local id's
        column: two gathers from id arrays built once per space."""
        first, second = self._testable_ids.T
        column = np.asarray(columns, dtype=np.intp)
        return column[first], column[second]

    def singleton_candidates(self, first: np.ndarray, second: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray]:
        """The conditioning candidates of the edges ``(first[e], second[e])``
        of a graph whose pairs are the required ones and these edges.

        An edge's candidates are the ids adjacent to either end, other than
        the ends, that may condition.  Returns the ``(edges, ids)`` boolean
        matrix of candidates and the graph's ``order`` matrix:
        ``order[a, b]`` is the position of edge ``(a, b)`` (either way
        round), ``len(first)`` for a required pair and ``-1`` for no pair.
        """
        size = len(self.names)
        order = np.full((size, size), -1, dtype=np.intp)
        required_u, required_v = self._required_ids.T
        order[required_u, required_v] = order[required_v, required_u] = \
            len(first)
        position = np.arange(len(first))
        order[first, second] = order[second, first] = position
        linked = order >= 0
        candidate = (linked[first] | linked[second]) & self._conditioning_mask
        candidate[position, first] = False
        candidate[position, second] = False
        return candidate, order

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
    tested after it.  Level 0 is one ``marginal_bands`` call over the
    testable pairs (``test_batch`` for a name-based test), read as a
    boolean array
    whose false entries are the surviving edges, in visiting order, and
    whose true entries have the empty separating set.  Level 1 is blocks
    of tests and a walk over them when the test offers ``singleton_bands``
    (see :func:`_singleton_level`); other levels test one subset at a time
    (:func:`_subset_level`).

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
    if hasattr(ci_test, "marginal_bands"):
        columns = [ci_test.column_index(name) for name in names]
        test = ci_test.test_index
        independent = ci_test.marginal_bands(
            *space.testable_columns(columns)).independent
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
    # Required pairs are never tested, so ``edges`` holds only the
    # surviving testable pairs, in visiting order.
    edges = [space.testable[k] for k in np.flatnonzero(~independent).tolist()]
    adjacency: list[set[int]] = [set() for _ in names]
    for u, v in (*space.required, *edges):
        adjacency[u].add(v)
        adjacency[v].add(u)
    # Separating sets of levels >= 1 as column tuples, in removal order.
    separating: dict[tuple[int, int], tuple[int, ...]] = {}

    # Level 0 always proceeds to level 1 (the marginal sweep says nothing
    # about conditional independencies); from level 1 onward an empty level
    # means no larger conditioning set can succeed either.
    for level in range(1, max_condition_size + 1):
        edges = [(u, v) for u, v in edges if v in adjacency[u]]
        if not edges:
            break
        if level == 1 and hasattr(ci_test, "singleton_bands"):
            performed, removed = _singleton_level(
                ci_test, space, columns, adjacency, edges,
                max_subsets_per_edge)
        else:
            performed, removed = _subset_level(
                test, space, columns, adjacency, edges, level,
                max_subsets_per_edge)
        tests += performed
        separating.update(removed)
        if not removed:
            break

    return SkeletonResult(
        graph=space.graph([*space.required,
                           *((u, v) for u, v in edges if v in adjacency[u])]),
        separating_sets=SeparatingSets(space, independent, separating,
                                       dict(zip(columns, names))),
        tests_performed=tests)


def _subset_level(test, space: SkeletonSpace, columns: Sequence,
                  adjacency: list[set[int]], edges: list[tuple[int, int]],
                  level: int, limit: int
                  ) -> tuple[int, dict[tuple[int, int], tuple]]:
    """One level of :func:`learn_skeleton`, one test at a time.

    Each edge in turn is tested against the first ``limit`` subsets of
    ``level`` of its current candidates, in name order, up to the first
    independent one.  Returns the number of tests and the separating
    column tuple of every removed edge; the removals are applied to
    ``adjacency``.
    """
    conditioning = space.conditioning
    removed: dict[tuple[int, int], tuple] = {}
    tests = 0
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
            limit)
        for subset in subsets:
            tests += 1
            if test(x, y, subset).independent:
                adjacency[u].discard(v)
                adjacency[v].discard(u)
                removed[(u, v)] = subset
                break
    return tests, removed


#: Candidate ranks the level-1 blocks cover, stage by stage: every edge's
#: first 4 candidates, then the next 12 of the edges still open, then all
#: the others of the edges still open.  An edge closes once a candidate it
#: is sure to keep is independent.  On the Table 3 debugging workload
#: (SQLite, 130 options and 80 events) about 55% of the level-1 edges need
#: no block past the first stage and 69% none past the second, so the
#: stages decide about 76k elements per relearn where one block over every
#: candidate decides 197k; level 1 takes 33 ms per relearn instead of
#: 70 ms (2-vCPU VM).
_SINGLETON_STAGES = (4, 16, None)


def _singleton_level(ci_test, space: SkeletonSpace, columns: Sequence[int],
                     adjacency: list[set[int]],
                     edges: list[tuple[int, int]], limit: int
                     ) -> tuple[int, dict[tuple[int, int], tuple[int]]]:
    """Level 1 of :func:`learn_skeleton` as blocks of tests and a walk.

    The candidates of every edge under the level-start adjacency are
    decided by ``ci_test.singleton_bands`` in stages
    (:data:`_SINGLETON_STAGES`).  The walk then visits the edges in order
    and takes, for each, the candidates that are still adjacent to one of
    its ends, in order, up to the first independent one or ``limit`` of
    them: exactly the tests the one-test-at-a-time search performs.  A
    candidate can only be lost to the removal of an edge visited earlier,
    so once an edge's blocks hold an independent candidate linked to it
    by a required pair or by an edge visited later, the walk stops there
    or sooner and the edge needs no more; every other edge gets all its
    candidates decided.  A ``-1`` decision is settled by
    ``ci_test.test_index`` when the walk reaches it.  Returns the number
    of tests and the separating column tuple of every removed edge; the
    removals are applied to ``adjacency``.
    """
    first, second = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    candidate, order = space.singleton_candidates(first, second)
    size = candidate.shape[1]
    rank = np.cumsum(candidate, axis=1, dtype=np.int16 if size < 2**15
                     else np.intp)
    column = np.asarray(columns, dtype=np.intp)
    open_edge = np.ones(len(edges), dtype=bool)
    stages = []
    low = 0
    for high in _SINGLETON_STAGES:
        rows = np.flatnonzero(open_edge)
        if not len(rows):
            break
        ranks = rank[rows]
        window = candidate[rows]
        window &= ranks > low
        if high is not None:
            window &= ranks <= high
        at = np.flatnonzero(window)
        e = rows[at // size]
        k = at % size
        bands = ci_test.singleton_bands(column[first[e]], column[second[e]],
                                        column[k])
        kept = np.maximum(order[first[e], k], order[second[e], k]) > e
        open_edge[e[kept & bands.independent]] = False
        stages.append((e, k, bands.band))
        low = high
    del candidate, rank
    # The decided candidates of each edge, in id order, edge by edge.
    edge_of = np.concatenate([stage[0] for stage in stages])
    by_edge = np.argsort(edge_of, kind="stable")
    bounds = np.searchsorted(edge_of[by_edge], np.arange(len(edges) + 1))
    ids = np.concatenate([stage[1] for stage in stages])[by_edge]
    decided = np.concatenate([stage[2] for stage in stages])[by_edge]
    ids, decisions, bounds = ids.tolist(), decided.tolist(), bounds.tolist()

    test = ci_test.test_index
    removed: dict[tuple[int, int], tuple[int]] = {}
    tests = 0
    for e, (u, v) in enumerate(edges):
        near_u, near_v = adjacency[u], adjacency[v]
        done = 0
        found = None
        for at in range(bounds[e], bounds[e + 1]):
            k = ids[at]
            if k not in near_u and k not in near_v:
                continue
            done += 1
            decision = decisions[at]
            if decision < 0:
                decision = test(columns[u], columns[v],
                                (columns[k],)).independent
            if decision:
                found = k
                break
            if done == limit:
                break
        tests += done
        if found is not None:
            near_u.discard(v)
            near_v.discard(u)
            removed[(u, v)] = (columns[found],)
    return tests, removed
