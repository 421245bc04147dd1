"""Differential tests: :class:`CachedCITest` against a plain cache replay.

The reference below routes every call through ``CIDecisionCache.lookup`` /
``store`` and the inner test's scalar ``test_index``, one pair at a time, in
call order (the misses of a batch with a conditioning set go to one inner
``test_batch_index`` call).  Random interleavings of scalar and batched
marginal tests (with repeated and reversed pairs), batches given one or two
conditioning columns, conditional tests by index and by name,
blocks of singleton-conditioning tests of which a prefix is performed (as
the skeleton's level 1 performs them), in-place appends (data-epoch bumps),
epoch jumps and ``cache.clear()`` must give the same :class:`CIResult` or
decision for every call and the same :class:`CICacheCounters` after every
call.  The dataset mixes continuous columns with small-cardinality discrete
ones, so tests take both the Fisher z and the G-test path, and it starts
with too few rows for a Fisher z decision, so the "cannot decide" sentinel
is replayed as well.  Whole skeleton searches and FCI runs over several
epochs are compared the same way, against the one-test-at-a-time search.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.discovery.constraints import StructuralConstraints
from repro.discovery.fci import fci
from repro.discovery.skeleton import SkeletonSpace, learn_skeleton
from repro.stats.dataset import Dataset
from repro.stats.independence import (
    CachedCITest,
    CIDecisionCache,
    CIResult,
    FisherZTest,
    GSquareTest,
    MixedCITest,
)

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


class _ReferenceCachedTest:
    """Per-pair replay through ``lookup``/``store`` and ``inner.test_index``.

    A batch looks every pair up first and tests the misses afterwards, in
    order, which is the documented batch semantics: a repeated pair that
    missed (or was evicted for a retest) earlier in the same batch misses
    again, and the last fresh result of a repeated pair is the one stored.
    A batch with a conditioning set tests its misses in one
    ``inner.test_batch_index`` call, as the cached test does: that call
    takes one Schur complement for all of them, whose rounding may differ
    from ``test_index`` in the last bit.
    """

    def __init__(self, inner, cache: CIDecisionCache, epoch_fn) -> None:
        self._inner = inner
        self._cache = cache
        self._epoch_fn = epoch_fn

    def test_index(self, i, j, conditioning=()):
        return self._replay([(i, j)], conditioning, batched=False)[0]

    def test_batch_index(self, pairs, conditioning=()):
        return self._replay(pairs, conditioning, batched=bool(conditioning))

    def _replay(self, pairs, conditioning, batched):
        epoch = self._epoch_fn()
        keys = [CIDecisionCache.key(i, j, conditioning) for i, j in pairs]
        results = [self._cache.lookup(key, epoch) for key in keys]
        missing = [k for k, result in enumerate(results) if result is None]
        if batched and missing:
            fresh = self._inner.test_batch_index([pairs[k] for k in missing],
                                                 conditioning)
        else:
            fresh = [self._inner.test_index(*pairs[k], conditioning)
                     for k in missing]
        for k, result in zip(missing, fresh):
            results[k] = result
            self._cache.store(keys[k], epoch, result)
        return results


class _OrientedMixedCITest(MixedCITest):
    """A mixed test whose marginal p-value moves by one ulp when the pair
    is given as ``(hi, lo)``, so that which of two fresh results of a
    repeated pair gets stored shows in later replays."""

    def test_index(self, i, j, conditioning=()):
        result = super().test_index(i, j, conditioning)
        if conditioning or i < j:
            return result
        p_value = float(np.nextafter(result.p_value, 2.0))
        return CIResult(p_value > self.alpha, p_value, result.statistic)

    def marginal_arrays(self, first, second):
        p_values, statistics = super().marginal_arrays(first, second)
        flipped = first > second
        p_values[flipped] = np.nextafter(p_values[flipped], 2.0)
        return p_values, statistics


_index = st.integers(min_value=0, max_value=len(COLUMNS) - 1)
_pair = st.tuples(_index, _index).filter(lambda p: p[0] != p[1])


@st.composite
def _conditional(draw):
    i, j = draw(_pair)
    others = [k for k in range(len(COLUMNS)) if k not in (i, j)]
    z = draw(st.lists(st.sampled_from(others), min_size=1, max_size=2,
                      unique=True))
    return ("cond", (i, j), tuple(z))


@st.composite
def _block(draw):
    """Singleton-conditioning triples with distinct keys, and how many of
    them (a prefix) the caller performs."""
    triples, keys = [], set()
    for i, j, z in draw(st.lists(st.permutations(range(len(COLUMNS))).map(
            lambda order: tuple(order[:3])), min_size=1, max_size=12)):
        if (min(i, j), max(i, j), z) not in keys:
            keys.add((min(i, j), max(i, j), z))
            triples.append((i, j, z))
    return ("block", triples, draw(st.integers(0, len(triples))))


@st.composite
def _named(draw):
    i, j = draw(_pair)
    z = draw(st.sampled_from([k for k in range(len(COLUMNS))
                              if k not in (i, j)]))
    return ("name", (i, j), (z,))


_batch = st.tuples(st.just("batch"), st.lists(_pair, max_size=24), st.just(()))
_sweep = st.tuples(st.just("batch"), st.lists(_pair, min_size=12, max_size=24),
                   st.just(()))


@st.composite
def _conditioned_batch(draw):
    """Pairs, repeats and reversals included, tested given one shared
    conditioning set of one or two other columns."""
    z = draw(st.lists(_index, min_size=1, max_size=2, unique=True))
    pairs = draw(st.lists(_pair.filter(lambda p: not set(p) & set(z)),
                          max_size=12))
    return ("batch", pairs, tuple(z))

_append = st.tuples(st.just("append"), st.integers(min_value=1, max_value=4))
# Sweeps (long batches) and a doubled append weight make most pairs be
# looked up again at later epochs: hits, stale reuse and forced retests.
# "shift" moves the epoch the cache sees without touching the data: the
# epoch supplier may skip ahead or go back, and a decision stored at a
# later epoch must never be replayed.
_operations = st.lists(st.one_of(
    st.tuples(st.just("scalar"), _pair), _batch, _sweep, _conditional(),
    _conditioned_batch(),
    _block(), _block(), _named(),
    _append, _append, st.tuples(st.just("clear")),
    st.tuples(st.just("shift"), st.sampled_from([-2, -1, 1])),
), min_size=8, max_size=40)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n_initial=st.integers(min_value=3, max_value=12),
       margin_factor=st.sampled_from([1.0, 2.0, 8.0]),
       max_stale_epochs=st.integers(min_value=1, max_value=3),
       oriented=st.booleans(),
       operations=_operations)
def test_cached_ci_test_matches_per_pair_cache_replay(
        seed, n_initial, margin_factor, max_stale_epochs, oriented,
        operations):
    pool = _rows(seed, n_initial + 4 * len(operations))
    data = Dataset(COLUMNS, pool[:n_initial], discrete=DISCRETE)
    used = n_initial
    shift = 0
    inner = _OrientedMixedCITest if oriented else MixedCITest

    def epoch():
        return data.data_epoch + shift

    def make_cache():
        return CIDecisionCache(alpha=0.05, margin_factor=margin_factor,
                               max_stale_epochs=max_stale_epochs)

    subject_cache, reference_cache = make_cache(), make_cache()
    subject = CachedCITest(inner(data), subject_cache, epoch)
    reference = _ReferenceCachedTest(inner(data), reference_cache, epoch)

    for operation in operations:
        kind = operation[0]
        if kind == "scalar":
            i, j = operation[1]
            assert subject.test_index(i, j, ()) == \
                reference.test_index(i, j, ())
        elif kind == "batch":
            pairs, z = operation[1], operation[2]
            assert subject.test_batch_index(pairs, z) == \
                reference.test_batch_index(pairs, z)
        elif kind == "cond":
            (i, j), z = operation[1], operation[2]
            assert subject.test_index(i, j, z) == \
                reference.test_index(i, j, z)
        elif kind == "name":
            (i, j), z = operation[1], operation[2]
            assert subject.test(COLUMNS[i], COLUMNS[j],
                                [COLUMNS[k] for k in z]) == \
                reference.test_index(i, j, z)
        elif kind == "block":
            triples, count = operation[1], operation[2]
            block = subject.singleton_block(*np.array(triples).T)
            performed = []
            for at, (i, j, z) in enumerate(triples[:count]):
                decision = int(block.decided[at])
                if decision < 0:
                    decision = subject.test_index(i, j, (z,)).independent
                else:
                    performed.append(at)
                assert bool(decision) == \
                    reference.test_index(i, j, (z,)).independent
            subject.settle_singletons(block, performed)
        elif kind == "append":
            count = operation[1]
            data.append_rows_inplace([dict(zip(COLUMNS, row))
                                      for row in pool[used:used + count]])
            used += count
        elif kind == "shift":
            shift += operation[1]
        else:
            subject_cache.clear()
            reference_cache.clear()
        assert asdict(subject_cache.counters) == \
            asdict(reference_cache.counters)


class _CountingInner:
    """Forward to a CI test, counting every call except column lookups."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.calls = 0

    def __getattr__(self, name):
        attribute = getattr(self._inner, name)
        if not callable(attribute) or name == "column_index":
            return attribute

        def counted(*args, **kwargs):
            self.calls += 1
            return attribute(*args, **kwargs)

        return counted


def test_same_epoch_level0_repeat_is_all_hits_and_no_inner_work():
    data = Dataset(COLUMNS, _rows(3, 60), discrete=DISCRETE)
    inner = _CountingInner(MixedCITest(data))
    cache = CIDecisionCache(alpha=0.05)
    cached = CachedCITest(inner, cache, lambda: data.data_epoch)
    space = SkeletonSpace(COLUMNS)

    first = learn_skeleton(COLUMNS, cached, max_condition_size=0,
                           space=space)
    assert first.tests_performed == len(space.testable)
    assert inner.calls > 0
    hits, calls = cache.counters.hits, inner.calls

    second = learn_skeleton(COLUMNS, cached, max_condition_size=0,
                            space=space)
    assert inner.calls == calls
    assert cache.counters.hits == hits + len(space.testable)
    assert second.graph.to_dict() == first.graph.to_dict()
    assert second.separating_sets == first.separating_sets


def test_gsquare_marginal_pairs_in_a_cached_batch_match_scalar_and_replay():
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

    cache = CIDecisionCache(alpha=0.05)
    cached = CachedCITest(MixedCITest(data), cache, lambda: data.data_epoch)
    assert cached.test_batch_index(pairs, ()) == single
    assert cache.counters.misses == len(pairs)
    # The stored G-test p-values replay, for either pair orientation.
    assert [cached.test_index(j, i, ()) for i, j in pairs] == single
    assert cached.test_batch_index(pairs, ()) == single
    assert cache.counters.hits == 2 * len(pairs)


class _NamedReference:
    """The per-pair reference behind a name-based interface, so that the
    skeleton search and FCI take their one-test-at-a-time path."""

    def __init__(self, reference: _ReferenceCachedTest, data: Dataset,
                 alpha: float) -> None:
        self._reference = reference
        self._index = data.column_index
        self.alpha = alpha

    def test(self, x, y, conditioning=()):
        idx = self._index
        return self._reference.test_index(idx(x), idx(y),
                                          [idx(c) for c in conditioning])

    def test_batch(self, pairs, conditioning=()):
        idx = self._index
        return self._reference.test_batch_index(
            [(idx(x), idx(y)) for x, y in pairs],
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
       margin_factor=st.sampled_from([1.0, 8.0]),
       constrained=st.booleans(),
       run_fci=st.booleans())
def test_searches_match_the_one_test_at_a_time_search(
        seed, n_initial, appends, max_subsets, max_condition_size,
        margin_factor, constrained, run_fci):
    pool = _search_rows(seed, n_initial + sum(appends))
    discrete = ["o0", "o1", "e5"]
    data = Dataset(SEARCH_COLUMNS, pool[:n_initial], discrete=discrete)
    constraints = StructuralConstraints.from_variable_lists(
        options=["o0", "o1"], events=["e0", "e1", "e2", "e3", "e4", "e5"],
        objectives=["t0", "t1"], required_edges={("e1", "t0")}) \
        if constrained else None
    space = SkeletonSpace(SEARCH_COLUMNS, constraints)

    def epoch():
        return data.data_epoch

    def make_cache():
        return CIDecisionCache(alpha=0.05, margin_factor=margin_factor)

    subject_cache, reference_cache = make_cache(), make_cache()
    subject = CachedCITest(MixedCITest(data), subject_cache, epoch)
    reference = _NamedReference(_ReferenceCachedTest(
        MixedCITest(data), reference_cache, epoch), data, 0.05)
    used = n_initial
    for count in [0, *appends]:
        if count:
            data.append_rows_inplace([dict(zip(SEARCH_COLUMNS, row))
                                      for row in pool[used:used + count]])
        used += count
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
        assert asdict(subject_cache.counters) == \
            asdict(reference_cache.counters)
