"""Unit tests for the incremental sufficient-statistics layer."""

import numpy as np
import pytest

from repro.stats.dataset import Dataset
from repro.stats.independence import FisherZTest, _partial_correlation
from repro.stats.sufficient import SufficientStats, normalise, normalise_block


@pytest.fixture
def data() -> Dataset:
    rng = np.random.default_rng(3)
    n = 200
    z = rng.normal(size=n)
    x = 1.5 * z + rng.normal(scale=0.4, size=n)
    y = -2.0 * z + rng.normal(scale=0.4, size=n)
    w = rng.normal(size=n)
    return Dataset(["x", "y", "z", "w"], np.column_stack([x, y, z, w]))


def test_moments_match_numpy(data):
    stats = SufficientStats(data)
    np.testing.assert_allclose(stats.means(), data.values.mean(axis=0))
    np.testing.assert_allclose(stats.covariance(),
                               np.cov(data.values, rowvar=False, ddof=0),
                               atol=1e-10)


def test_partial_correlation_matches_regression_residuals(data):
    stats = SufficientStats(data)
    for i, j, cond in [(0, 1, []), (0, 1, [2]), (0, 3, [2]), (1, 3, [0, 2])]:
        expected = _partial_correlation(data.values, i, j, cond)
        assert stats.partial_correlation(i, j, cond) == pytest.approx(
            expected, abs=1e-10)


def test_batch_partial_correlations_match_singles(data):
    stats = SufficientStats(data)
    matrix = stats.partial_correlations([0, 1, 3], [2])
    for (a, b), (i, j) in [((0, 1), (0, 1)), ((0, 2), (0, 3)),
                           ((1, 2), (1, 3))]:
        assert matrix[a, b] == pytest.approx(
            stats.partial_correlation(i, j, [2]), abs=1e-12)


def test_incremental_append_matches_fresh_stats(data):
    stats = SufficientStats(data)
    stats.covariance()  # derive the matrix before extending
    rng = np.random.default_rng(9)
    rows = [{"x": float(rng.normal()), "y": float(rng.normal()),
             "z": float(rng.normal()), "w": float(rng.normal())}
            for _ in range(25)]
    grown = stats.extended(rows)
    fresh = SufficientStats(data.append_rows(rows))
    np.testing.assert_allclose(grown.covariance(), fresh.covariance(),
                               atol=1e-10)
    assert grown.n_rows == fresh.n_rows == 225
    assert stats.n_rows == data.n_rows == 200


def test_codes_and_cardinality_follow_extended_data(data):
    stats = SufficientStats(data)
    before = stats.codes("x", bins=4)
    assert stats.codes("x", bins=4) is before  # cached
    card = stats.cardinality("x")
    grown = stats.extended([{"x": 99.0, "y": 0.0, "z": 0.0, "w": 0.0}])
    after = grown.codes("x", bins=4)
    assert after is not before
    assert len(after) == len(before) + 1
    assert grown.cardinality("x") == card + 1
    # The statistics extended from are unchanged.
    assert stats.codes("x", bins=4) is before
    assert stats.cardinality("x") == card


def test_constant_column_yields_zero_correlation():
    values = np.column_stack([np.ones(50), np.arange(50.0)])
    stats = SufficientStats(Dataset(["c", "t"], values))
    assert stats.partial_correlation(0, 1) == 0.0


def test_large_magnitude_columns_keep_precision():
    """Shifted accumulation avoids the cross/n - mean^2 cancellation."""
    rng = np.random.default_rng(4)
    n = 400
    base = rng.normal(size=n)
    x = 3e7 + base + rng.normal(scale=0.3, size=n)
    y = 6e10 + 2e3 * base + rng.normal(scale=500.0, size=n)
    data = Dataset(["x", "y"], np.column_stack([x, y]))
    stats = SufficientStats(data)
    expected = float(np.corrcoef(x, y)[0, 1])
    assert stats.correlation(0, 1) == pytest.approx(expected, abs=1e-6)
    assert abs(stats.correlation(0, 1)) > 0.5


def test_fisher_test_sees_the_rows_of_extended_stats():
    rng = np.random.default_rng(0)
    n = 150
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    data = Dataset(["x", "y"], np.column_stack([x, y]))
    test = FisherZTest(data)
    assert test.test("x", "y").independent
    # Append strongly coupled rows; a test over the extended stats sees
    # them, and the original test still answers over its own rows.
    t = rng.normal(size=300)
    grown = test.sufficient_stats.extended(
        [{"x": float(v), "y": float(v)} for v in t])
    assert not FisherZTest(grown.data, stats=grown).test("x", "y").independent
    assert test.test("x", "y").independent


# ---------------------------------------------------------------------------
# Vectorised normalisation is bit-equal to the scalar form
# ---------------------------------------------------------------------------
def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def test_normalise_block_matches_scalar_normalise_bit_for_bit():
    rng = np.random.default_rng(11)
    block = rng.normal(size=(7, 7)) * 10.0 ** rng.integers(-8, 8, (7, 7))
    np.fill_diagonal(block, np.abs(np.diag(block)))
    block[1, 1] = 0.0            # constant column
    block[2, 2] = 1e-30          # variance below the epsilon
    block[3, 4] = np.nan         # NaN covariance
    block[5, 6] = 1e300          # |r| far above the clamp
    block[0, 6] = -0.0           # signed zero survives
    out = normalise_block(block)
    diag = np.diag(block)
    expected = np.eye(7)
    for a in range(7):
        for b in range(a + 1, 7):
            expected[a, b] = expected[b, a] = normalise(
                block[a, b], diag[a], diag[b])
    np.testing.assert_array_equal(_bits(out), _bits(expected))


def test_partial_correlations_match_scalar_partial_correlation_bit_for_bit():
    rng = np.random.default_rng(12)
    n = 60
    base = rng.normal(size=n)
    values = np.column_stack([
        base + rng.normal(scale=0.5, size=n),
        -base + rng.normal(scale=0.5, size=n),
        np.full(n, 3.0),                              # constant column
        np.where(rng.random(n) < 0.5, 1e200, -1e200),  # covariance -> NaN
        rng.normal(size=n),
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        stats = SufficientStats(Dataset(["a", "b", "c", "d", "e"], values))
        assert np.isnan(stats.covariance()).any()
    targets = [0, 1, 2, 3, 4]
    matrix = stats.partial_correlations(targets)
    for a in targets:
        for b in targets:
            if a != b:
                assert _bits(matrix[a, b]) == _bits(
                    stats.partial_correlation(a, b))


def test_fisher_batch_matches_single_tests_exactly(data):
    test = FisherZTest(data)
    pairs = [("x", "y"), ("w", "x"), ("z", "y"), ("w", "z")]
    assert test.test_batch(pairs) == [test.test(x, y) for x, y in pairs]
