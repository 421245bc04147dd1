"""Tests for entropy estimators and discretization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.discretize import discretize_column, discretize_matrix
from repro.stats.entropy import (
    conditional_entropy,
    discrete_entropy,
    entropy_of_distribution,
    exogenous_noise_entropy,
    joint_entropy,
    mutual_information,
)


def test_entropy_of_constant_is_zero():
    assert discrete_entropy(np.zeros(100)) == 0.0
    assert discrete_entropy(np.array([])) == 0.0


def test_entropy_of_fair_coin_is_one_bit():
    values = np.array([0, 1] * 500)
    assert discrete_entropy(values) == pytest.approx(1.0)


def test_entropy_of_distribution_matches_plugin():
    assert entropy_of_distribution([0.5, 0.5]) == pytest.approx(1.0)
    assert entropy_of_distribution([1.0, 0.0]) == 0.0


def test_joint_entropy_of_independent_variables_adds():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, size=4000)
    y = rng.integers(0, 4, size=4000)
    assert joint_entropy(x, y) == pytest.approx(
        discrete_entropy(x) + discrete_entropy(y), abs=0.05)


def test_conditional_entropy_of_function_is_zero():
    x = np.array([0, 1, 2, 3] * 100)
    y = x % 2
    assert conditional_entropy(y, x) == pytest.approx(0.0, abs=1e-9)


def test_mutual_information_identity_and_independence():
    rng = np.random.default_rng(1)
    x = rng.integers(0, 4, size=5000)
    noise = rng.integers(0, 4, size=5000)
    assert mutual_information(x, x) == pytest.approx(discrete_entropy(x))
    assert mutual_information(x, noise) == pytest.approx(0.0, abs=0.02)


def test_conditional_mutual_information_removes_confounding():
    rng = np.random.default_rng(2)
    z = rng.integers(0, 2, size=6000)
    x = z ^ rng.integers(0, 2, size=6000) * 0  # x == z
    y = z
    # Marginally x and y are perfectly dependent, conditionally independent.
    assert mutual_information(x, y) > 0.9
    assert mutual_information(x, y, z) == pytest.approx(0.0, abs=1e-9)


def test_exogenous_noise_entropy_prefers_true_direction():
    rng = np.random.default_rng(3)
    cause = rng.integers(0, 4, size=4000)
    noise = rng.integers(0, 2, size=4000)
    effect = cause * 2 + noise
    # H(effect | cause) = H(noise) = 1 bit; H(cause | effect) is lower than
    # H(cause) but the forward direction needs strictly less noise entropy.
    assert exogenous_noise_entropy(cause, effect) < exogenous_noise_entropy(
        effect, cause) + 1.0


def test_discretize_keeps_discrete_codes():
    values = np.array([5.0, 7.0, 5.0, 9.0])
    codes = discretize_column(values, already_discrete=True)
    assert set(codes) == {0, 1, 2}


def test_discretize_bins_continuous_values():
    rng = np.random.default_rng(4)
    values = rng.normal(size=1000)
    codes = discretize_column(values, bins=8)
    assert codes.max() <= 7
    # Equal-frequency binning keeps bins roughly balanced.
    counts = np.bincount(codes)
    assert counts.min() > 50


def test_discretize_matrix_uses_mask():
    matrix = np.column_stack([np.arange(100, dtype=float),
                              np.repeat([1.0, 5.0], 50)])
    codes = discretize_matrix(matrix, bins=4,
                              discrete_mask=np.array([False, True]))
    assert codes[:, 0].max() == 3
    assert set(codes[:, 1]) == {0, 1}


def reference_discretize_column(values, bins=8, already_discrete=False):
    """One column at a time: the per-column body the matrix pass replaced."""
    values = np.asarray(values, dtype=float)
    unique = np.unique(values)
    if already_discrete or unique.size <= bins:
        _, codes = np.unique(values, return_inverse=True)
        return codes.astype(np.int64)
    quantiles = np.quantile(values, np.linspace(0, 1, bins + 1)[1:-1])
    edges = np.unique(quantiles)
    return np.digitize(values, edges).astype(np.int64)


#: Ties, signed zeros, infinities and NaNs next to ordinary values.
_POOL = [-3.5, -1.0, -0.0, 0.0, 0.25, 1.0, 2.0, 7.5, 1e6, np.inf, -np.inf,
         np.nan]


@st.composite
def coded_matrices(draw):
    """0-40 rows, 1-6 columns of 1-30 distinct levels, some marked discrete."""
    rows = draw(st.integers(0, 40))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        levels = draw(st.integers(1, 30))
        pool = _POOL + [draw(st.floats(-1e3, 1e3)) for _ in range(levels)]
        palette = draw(st.lists(st.sampled_from(pool), min_size=1,
                                max_size=levels))
        columns.append(draw(st.lists(st.sampled_from(palette),
                                     min_size=rows, max_size=rows)))
    mask = draw(st.lists(st.booleans(), min_size=len(columns),
                         max_size=len(columns)))
    matrix = np.array(columns, dtype=float).T.reshape(rows, len(columns))
    return matrix, mask


@settings(max_examples=300, deadline=None)
@given(coded_matrices(), st.integers(1, 10))
def test_discretize_matrix_matches_the_per_column_reference(case, bins):
    matrix, mask = case
    got = discretize_matrix(matrix, bins=bins, discrete_mask=mask)
    want = np.empty(matrix.shape, dtype=np.int64)
    for j, is_discrete in enumerate(mask):
        want[:, j] = reference_discretize_column(matrix[:, j], bins=bins,
                                                 already_discrete=is_discrete)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    for j, is_discrete in enumerate(mask):
        assert np.array_equal(
            discretize_column(matrix[:, j], bins=bins,
                              already_discrete=is_discrete), want[:, j])
