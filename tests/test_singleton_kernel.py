"""The array form of singleton-conditioning CI tests is the scalar form.

Level 1 of the skeleton search and Possible-D-Sep pruning (with
``max_condition_size=1``) test ``x`` and ``y`` given one column ``z``.
:meth:`SufficientStats.singleton_partial_correlations` computes a whole
block of those partial correlations at once, and
:func:`_fisher_z_decisions` decides them without a ``log`` or ``erfc`` per
element.  These tests hold both to the scalar path,
:meth:`SufficientStats.partial_correlation` and
:func:`_fisher_z_from_correlation`, bit for bit and decision for decision,
over the degenerate inputs the scalar path special-cases.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.stats.dataset import Dataset
from repro.stats.independence import (
    CachedCITest,
    CIDecisionCache,
    FisherZTest,
    MixedCITest,
    _fisher_z_arrays,
    _fisher_z_decisions,
    _fisher_z_from_correlation,
)
from repro.stats.sufficient import SufficientStats


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _triples(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    first, second, third = np.array(
        [t for t in itertools.permutations(range(p), 3)], dtype=np.intp).T
    return first, second, third


def _stats_over(cov: np.ndarray) -> SufficientStats:
    """Sufficient statistics whose covariance is ``cov``, as given."""
    p = len(cov)
    stats = SufficientStats(Dataset([f"c{k}" for k in range(p)],
                                    np.zeros((3, p))))
    stats.covariance = lambda: cov
    return stats


def _degenerate_covariance() -> np.ndarray:
    rng = np.random.default_rng(21)
    p = 9
    base = rng.normal(size=(p, p)) * 10.0 ** rng.integers(-6, 6, (p, p))
    cov = base @ base.T
    cov[1, :] = cov[:, 1] = 0.0          # constant column
    cov[2, 2] = 1e-30                    # variance below the epsilon
    cov[3, 4] = cov[4, 3] = np.nan       # NaN covariance
    cov[5, 6] = cov[6, 5] = 1e200        # squares overflow
    cov[0, 7] = cov[7, 0] = np.inf       # infinite covariance
    cov[0, 8] = cov[8, 0] = 1e300 * np.sign(cov[0, 8] or 1.0)  # |r| clamps
    return cov


def test_singleton_partial_correlations_match_scalar_bit_for_bit():
    stats = _stats_over(_degenerate_covariance())
    first, second, third = _triples(9)
    corr, raises = stats.singleton_partial_correlations(first, second, third)
    assert raises is not None and raises.any()
    for e, (i, j, k) in enumerate(zip(first.tolist(), second.tolist(),
                                      third.tolist())):
        try:
            expected = stats.partial_correlation(i, j, [k])
        except OverflowError:
            assert raises[e], (i, j, k)
            continue
        assert not raises[e], (i, j, k)
        assert _bits(corr[e]) == _bits(expected), (i, j, k)


def test_singleton_partial_correlations_on_data_match_scalar():
    rng = np.random.default_rng(4)
    n = 40
    z = rng.normal(size=n)
    values = np.column_stack([
        z + rng.normal(scale=0.3, size=n),
        -z + rng.normal(scale=0.3, size=n),
        np.full(n, 7.0),                         # constant column
        z * 1e-13,                               # variance below epsilon
        rng.normal(size=n) * 1e6,
    ])
    values = np.column_stack([values, 2 * values[:, 0]])  # |r| clamps
    stats = SufficientStats(Dataset([f"c{k}" for k in range(6)], values))
    first, second, third = _triples(6)
    corr, raises = stats.singleton_partial_correlations(first, second, third)
    assert raises is None
    expected = [stats.partial_correlation(i, j, [k])
                for i, j, k in zip(first.tolist(), second.tolist(),
                                   third.tolist())]
    np.testing.assert_array_equal(_bits(corr), _bits(expected))
    assert np.abs(corr).max() == 0.9999999


def _threshold_correlation(n: int, alpha: float) -> float:
    """The correlation at which the scalar decision flips, to the ulp."""
    low, high = 0.0, 0.9999999
    while True:
        middle = (low + high) / 2
        if middle in (low, high):
            return high
        if _fisher_z_from_correlation(middle, n, 1, alpha).independent:
            low = middle
        else:
            high = middle


@pytest.mark.parametrize("alpha", [0.05, 0.01, 0.3])
@pytest.mark.parametrize("n", [5, 13, 60, 5000])
def test_array_decisions_match_scalar_decisions(n, alpha):
    rng = np.random.default_rng(n)
    edge = _threshold_correlation(n, alpha)
    near = np.array([edge, -edge])
    for _ in range(6):
        near = np.concatenate([near, np.nextafter(near[-2:], 2.0),
                               np.nextafter(near[-2:], -2.0)])
    corr = np.concatenate([rng.uniform(-1, 1, 400), near,
                           [0.0, -0.0, 0.9999999, -0.9999999]])
    decided = _fisher_z_decisions(corr, n, 1, alpha)
    expected = [_fisher_z_from_correlation(r, n, 1, alpha).independent
                for r in corr.tolist()]
    for d, want, r in zip(decided.tolist(), expected, corr.tolist()):
        assert d == -1 or bool(d) == want, r
    # Within a few ulps of the threshold the array form defers ...
    assert (decided[400:400 + len(near)] == -1).all()
    # ... and decides everything else.
    assert (decided[:400] != -1).all()
    p_values, _ = _fisher_z_arrays(corr, n, 1)
    np.testing.assert_array_equal(p_values[decided >= 0] > alpha,
                                  decided[decided >= 0] == 1)


def test_too_few_rows_decide_dependent_like_the_sentinel():
    corr = np.array([0.0, 0.5, -0.9])
    for n in (2, 3, 4):
        assert _fisher_z_from_correlation(0.0, n, 1, 0.05).p_value == 0.0
        assert (_fisher_z_decisions(corr, n, 1, 0.05) == 0).all()
        p_values, statistics = _fisher_z_arrays(corr, n, 1)
        assert (p_values == 0).all() and np.isinf(statistics).all()


def _mixed_data() -> Dataset:
    rng = np.random.default_rng(9)
    n = 80
    d0 = rng.integers(0, 2, n)
    d1 = (d0 + rng.integers(0, 2, n)) % 3
    d2 = rng.integers(0, 2, n)
    c0 = d0 + rng.normal(scale=0.5, size=n)
    c1 = rng.normal(size=n)
    return Dataset(["d0", "d1", "d2", "c0", "c1"],
                   np.column_stack([d0, d1, d2, c0, c1]).astype(float),
                   discrete=["d0", "d1", "d2"])


@pytest.mark.parametrize("inner", [FisherZTest, MixedCITest])
def test_singleton_decisions_agree_with_test_index(inner):
    test = inner(_mixed_data())
    first, second, third = _triples(5)
    corr, decided = test.singleton_decisions(first, second, third)
    results = [test.test_index(i, j, [k]) for i, j, k in
               zip(first.tolist(), second.tolist(), third.tolist())]
    for d, result in zip(decided.tolist(), results):
        assert d == -1 or bool(d) == result.independent
    fisher = decided >= 0
    p_values, statistics = test.singleton_results(corr[fisher])
    assert p_values.tolist() == [r.p_value for r, f in zip(results, fisher)
                                 if f]
    assert statistics.tolist() == [r.statistic for r, f in zip(results, fisher)
                                   if f]


def test_all_discrete_triples_are_left_to_the_g_test():
    data = _mixed_data()
    mixed, fisher = MixedCITest(data), FisherZTest(data)
    first, second, third = _triples(5)
    _, decided = mixed.singleton_decisions(first, second, third)
    discrete = (first < 3) & (second < 3) & (third < 3)
    assert (decided[discrete] == -1).all()
    assert (decided[~discrete] >= 0).all()
    # At least one of them really takes the G-test.
    assert any(mixed.test_index(i, j, [k]) != fisher.test_index(i, j, [k])
               for i, j, k in zip(first[discrete].tolist(),
                                  second[discrete].tolist(),
                                  third[discrete].tolist()))
    # A cached block hands those to test_index and gets its answers.
    cached = CachedCITest(MixedCITest(data), CIDecisionCache(),
                          lambda: data.data_epoch)
    block = cached.singleton_block(first, second, third)
    assert (block.decided[discrete] == -1).all()


def test_decisions_leave_folding_the_new_rows_to_performed_tests():
    """Sums folded in other chunks round differently, so a block decided
    between two appends must not fold the first one in on its own: a test
    that tested nothing in between then answers as one that did, bit for
    bit."""
    columns = [f"c{k}" for k in range(8)]
    rng = np.random.default_rng(4)
    rows = (rng.normal(size=(27, 8)) * rng.uniform(0.1, 1000, 8)
            + rng.uniform(-1e4, 1e4, 8))
    data = Dataset(columns, rows[:20])
    blocked, untouched = FisherZTest(data), FisherZTest(data)
    first, second, third = _triples(8)
    data.append_rows_inplace([dict(zip(columns, row)) for row in rows[20:23]])
    blocked.singleton_decisions(first, second, third)
    data.append_rows_inplace([dict(zip(columns, row)) for row in rows[23:]])
    for i, j, k in zip(first.tolist(), second.tolist(), third.tolist()):
        assert blocked.test_index(i, j, [k]) == untouched.test_index(i, j, [k])
