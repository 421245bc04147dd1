"""Differential tests: :class:`CachedCITest` against a plain cache replay.

The reference below routes every call through ``CIDecisionCache.lookup`` /
``store`` and the inner test's scalar ``test_index``, one pair at a time, in
call order.  Random interleavings of scalar and batched marginal tests
(with repeated and reversed pairs), conditional tests, in-place appends
(data-epoch bumps), epoch jumps and ``cache.clear()`` must give the same
:class:`CIResult` for every call and the same :class:`CICacheCounters`
after every call.  The dataset mixes continuous columns with
small-cardinality discrete ones, so marginal pairs take both the Fisher z
and the G-test path, and it starts with too few rows for a Fisher z
decision, so the "cannot decide" sentinel is replayed as well.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
from hypothesis import given, settings, strategies as st

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
    """

    def __init__(self, inner, cache: CIDecisionCache, epoch_fn) -> None:
        self._inner = inner
        self._cache = cache
        self._epoch_fn = epoch_fn

    def test_index(self, i, j, conditioning=()):
        return self.test_batch_index([(i, j)], conditioning)[0]

    def test_batch_index(self, pairs, conditioning=()):
        epoch = self._epoch_fn()
        keys = [CIDecisionCache.key(i, j, conditioning) for i, j in pairs]
        results = [self._cache.lookup(key, epoch) for key in keys]
        for k, (i, j) in enumerate(pairs):
            if results[k] is None:
                results[k] = self._inner.test_index(i, j, conditioning)
                self._cache.store(keys[k], epoch, results[k])
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


_batch = st.tuples(st.just("batch"), st.lists(_pair, max_size=24))
_sweep = st.tuples(st.just("batch"), st.lists(_pair, min_size=12, max_size=24))
_append = st.tuples(st.just("append"), st.integers(min_value=1, max_value=4))
# Sweeps (long batches) and a doubled append weight make most pairs be
# looked up again at later epochs: hits, stale reuse and forced retests.
# "shift" moves the epoch the cache sees without touching the data: the
# epoch supplier may skip ahead or go back, and a decision stored at a
# later epoch must never be replayed.
_operations = st.lists(st.one_of(
    st.tuples(st.just("scalar"), _pair), _batch, _sweep, _conditional(),
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
            pairs = operation[1]
            assert subject.test_batch_index(pairs, ()) == \
                reference.test_batch_index(pairs, ())
        elif kind == "cond":
            (i, j), z = operation[1], operation[2]
            assert subject.test_index(i, j, z) == \
                reference.test_index(i, j, z)
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
