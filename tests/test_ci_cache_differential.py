"""Differential tests: the array-block walks against one test at a time.

The skeleton's level 1 decides the candidates of every edge in staged
blocks of ``singleton_bands`` and walks them in visiting order, and
Possible-D-Sep pruning decides all its ``|Z| = 1`` tests in one block and
walks that.  Both must perform exactly the tests, in the order, and make
exactly the removals of the search that runs one scalar test at a time.
Whole skeleton searches and FCI runs over a dataset and each extension of
its statistics are compared against that search, reached through a
name-based test (which takes the one-test-at-a-time path), over the
uncached :class:`MixedCITest` and over a :class:`CachedCITest` around it.
The datasets mix continuous columns with small-cardinality discrete ones,
so tests take both the Fisher z and the G-test path.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.discovery.constraints import StructuralConstraints
from repro.discovery.fci import _pdsep_prune, fci, orient_colliders
from repro.discovery.skeleton import SkeletonSpace, learn_skeleton
from repro.graph.separation import possible_d_sep
from repro.stats.dataset import Dataset
from repro.stats.independence import (
    CachedCITest,
    CIDecisionCache,
    FisherZTest,
    GSquareTest,
    MixedCITest,
)
from repro.stats.sufficient import SufficientStats

COLUMNS = ["c0", "c1", "c2", "d0", "d1", "d2"]
DISCRETE = ["d0", "d1", "d2"]


def _rows(seed: int, n: int) -> np.ndarray:
    """Rows with strong, weak and absent dependencies between columns."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    c0 = z + rng.normal(scale=0.3, size=n)
    c1 = 0.3 * z + rng.normal(size=n)
    c2 = rng.normal(size=n)
    d0 = rng.integers(0, 2, size=n)
    d1 = (d0 + rng.integers(0, 2, size=n)) % 3
    d2 = rng.integers(0, 3, size=n)
    return np.column_stack([c0, c1, c2, d0, d1, d2]).astype(float)


def test_gsquare_marginal_pairs_in_a_batch_match_scalar():
    data = Dataset(COLUMNS, _rows(5, 50), discrete=DISCRETE)
    mixed = MixedCITest(data)
    gsquare, fisher = GSquareTest(data), FisherZTest(data)
    pairs = [(i, j) for i in range(len(COLUMNS))
             for j in range(i + 1, len(COLUMNS))]
    single = [mixed.test_index(i, j) for i, j in pairs]
    # Discrete-discrete pairs take the G-test, every other pair Fisher z.
    for (i, j), result in zip(pairs, single):
        x, y = COLUMNS[i], COLUMNS[j]
        expected = gsquare if {x, y} <= set(DISCRETE) else fisher
        assert result == expected.test(x, y)
    assert any(result != fisher.test(COLUMNS[i], COLUMNS[j])
               for (i, j), result in zip(pairs, single))

    assert MixedCITest(data).test_batch_index(pairs, ()) == single
    # A cached test hands the level-0 array form straight to its inner test.
    cache = CIDecisionCache(alpha=0.05)
    cached = CachedCITest(MixedCITest(data), cache, epoch=0)
    first, second = np.array(pairs).T
    assert cached.marginal_bands(first, second).results(0, 0.05) == single
    assert cache.counters.total_lookups == 0


class _NamedReference:
    """A CI test behind a name-based interface with no batch form, so that
    the skeleton search and FCI run one scalar test at a time."""

    def __init__(self, inner: MixedCITest, data: Dataset) -> None:
        self._inner = inner
        self._index = data.column_index
        self.alpha = inner.alpha

    def test(self, x, y, conditioning=()):
        idx = self._index
        return self._inner.test_index(idx(x), idx(y),
                                      [idx(c) for c in conditioning])


def _search_rows(seed: int, n: int) -> np.ndarray:
    """Ten columns over a chain, a fork and a collider, plus noise."""
    rng = np.random.default_rng(seed)
    o0 = rng.integers(0, 3, n)
    o1 = rng.integers(0, 2, n)
    e0 = o0 + rng.normal(scale=0.7, size=n)
    e1 = e0 + o1 + rng.normal(scale=0.7, size=n)
    e2 = e0 + rng.normal(scale=0.9, size=n)
    e3 = rng.normal(size=n)
    e4 = e1 - e3 + rng.normal(scale=0.8, size=n)
    e5 = rng.integers(0, 2, n)
    t0 = e1 + e4 + rng.normal(scale=0.5, size=n)
    t1 = e2 + rng.normal(scale=0.5, size=n)
    return np.column_stack([o0, o1, e0, e1, e2, e3, e4, e5, t0,
                            t1]).astype(float)


SEARCH_COLUMNS = ["o0", "o1", "e0", "e1", "e2", "e3", "e4", "e5", "t0", "t1"]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n_initial=st.integers(min_value=4, max_value=40),
       appends=st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                        max_size=4),
       max_subsets=st.integers(min_value=1, max_value=6),
       max_condition_size=st.integers(min_value=1, max_value=2),
       constrained=st.booleans(),
       run_fci=st.booleans())
def test_searches_match_the_one_test_at_a_time_search(
        seed, n_initial, appends, max_subsets, max_condition_size,
        constrained, run_fci):
    pool = _search_rows(seed, n_initial + sum(appends))
    discrete = ["o0", "o1", "e5"]
    data = Dataset(SEARCH_COLUMNS, pool[:n_initial], discrete=discrete)
    constraints = StructuralConstraints.from_variable_lists(
        options=["o0", "o1"], events=["e0", "e1", "e2", "e3", "e4", "e5"],
        objectives=["t0", "t1"], required_edges={("e1", "t0")}) \
        if constrained else None
    space = SkeletonSpace(SEARCH_COLUMNS, constraints)
    cache = CIDecisionCache(alpha=0.05)
    stats = SufficientStats(data)
    used = n_initial
    for epoch, count in enumerate([0, *appends]):
        if count:
            stats = stats.extended([dict(zip(SEARCH_COLUMNS, row))
                                    for row in pool[used:used + count]])
        used += count
        data = stats.data
        subjects = (MixedCITest(data, stats=stats),
                    CachedCITest(MixedCITest(data, stats=stats), cache,
                                 epoch))
        reference = _NamedReference(MixedCITest(data, stats=stats), data)
        for subject in subjects:
            if run_fci:
                got = fci(SEARCH_COLUMNS, subject, constraints=constraints,
                          max_condition_size=max_condition_size, space=space)
                want = fci(SEARCH_COLUMNS, reference, constraints=constraints,
                           max_condition_size=max_condition_size)
                graphs = got.pag.to_dict(), want.pag.to_dict()
            else:
                got, want = (learn_skeleton(
                    SEARCH_COLUMNS, test, constraints=constraints,
                    max_condition_size=max_condition_size,
                    max_subsets_per_edge=max_subsets, space=space)
                    for test in (subject, reference))
                graphs = got.graph.to_dict(), want.graph.to_dict()
            assert graphs[0] == graphs[1]
            assert dict(got.separating_sets) == dict(want.separating_sets)
            assert got.tests_performed == want.tests_performed


def _reference_pdsep_prune(graph, test, column, separating_sets,
                           max_condition_size, constraints,
                           max_subsets_per_edge):
    """Possible-D-Sep pruning one test at a time: every edge, in
    ``graph.edges()`` order, against the subsets of its current
    Possible-D-Sep candidates, size by size, each size up to the window."""
    tests = 0
    required = {frozenset(edge) for edge in constraints.required_edges} \
        if constraints is not None else set()
    allowed = {name for name in graph.nodes
               if constraints is None or constraints.conditioning_allowed(name)}
    for edge in list(graph.edges()):
        x, y = edge.u, edge.v
        if frozenset((x, y)) in required:
            continue
        candidates = sorted((possible_d_sep(graph, x, y)
                             | possible_d_sep(graph, y, x)) & allowed)
        found = False
        for size in range(1, min(len(candidates), max_condition_size) + 1):
            for subset in itertools.islice(
                    itertools.combinations(candidates, size),
                    max_subsets_per_edge):
                tests += 1
                if test(column[x], column[y],
                        [column[c] for c in subset]).independent:
                    graph.remove_edge(x, y)
                    separating_sets[frozenset((x, y))] = set(subset)
                    found = True
                    break
            if found:
                break
    return tests


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n_initial=st.integers(min_value=4, max_value=40),
       appends=st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                        max_size=4),
       max_subsets=st.integers(min_value=1, max_value=4),
       max_condition_size=st.integers(min_value=1, max_value=2),
       constrained=st.booleans())
def test_pdsep_prune_matches_the_one_test_at_a_time_prune(
        seed, n_initial, appends, max_subsets, max_condition_size,
        constrained):
    """``_pdsep_prune`` with one block of singleton decisions, and its walk
    over a name-based test, against the sequential prune: the same graph,
    separating sets and test count after every epoch.  The all-discrete
    triples over o0, o1 and e5 are ``-1`` decisions."""
    pool = _search_rows(seed, n_initial + sum(appends))
    # e5 becomes a discrete collider of o0 and o1.
    rng = np.random.default_rng(seed)
    pool[:, 7] = pool[:, 0] + pool[:, 1] + rng.integers(0, 2, len(pool))
    data = Dataset(SEARCH_COLUMNS, pool[:n_initial],
                   discrete=["o0", "o1", "e5"])
    constraints = StructuralConstraints.from_variable_lists(
        options=["o0", "o1"], events=["e0", "e1", "e2", "e3", "e4", "e5"],
        objectives=["t0", "t1"], required_edges={("e1", "t0")},
        forbid_option_option_edges=False) if constrained else None
    space = SkeletonSpace(SEARCH_COLUMNS, constraints)
    column = {name: data.column_index(name) for name in SEARCH_COLUMNS}
    stats = SufficientStats(data)
    used = n_initial
    for count in [0, *appends]:
        if count:
            stats = stats.extended([dict(zip(SEARCH_COLUMNS, row))
                                    for row in pool[used:used + count]])
        used += count
        data = stats.data
        blocked, sequential = (MixedCITest(data, stats=stats)
                               for _ in range(2))
        named = [_NamedReference(MixedCITest(data, stats=stats), data)
                 for _ in range(2)]
        outcomes = []
        for side, test in enumerate((blocked, *named)):
            skeleton = learn_skeleton(
                SEARCH_COLUMNS, test,
                constraints=constraints,
                max_condition_size=max_condition_size,
                max_subsets_per_edge=1, space=space)
            graph, sepsets = skeleton.graph, skeleton.separating_sets
            orient_colliders(graph, sepsets, constraints)
            if side == 1:
                tests = _reference_pdsep_prune(
                    graph, sequential.test_index, column, sepsets,
                    max_condition_size, constraints, max_subsets)
            else:
                tests = _pdsep_prune(graph, test, sepsets,
                                     max_condition_size, constraints,
                                     max_subsets_per_edge=max_subsets)
            outcomes.append((graph.to_dict(), dict(sepsets), tests))
        assert outcomes[0] == outcomes[1]
        assert outcomes[2] == outcomes[1]
