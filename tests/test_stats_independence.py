"""Tests for the conditional-independence tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

import repro

from repro.stats.dataset import Dataset
from repro.stats.independence import (
    Bands,
    FisherZTest,
    GSquareTest,
    MixedCITest,
    _fisher_z_from_correlation,
    _settled_bands,
    fisher_z,
    g_square,
)


@pytest.fixture(scope="module")
def continuous_data() -> Dataset:
    rng = np.random.default_rng(0)
    n = 600
    z = rng.normal(size=n)
    x = 2 * z + rng.normal(scale=0.5, size=n)
    y = -3 * z + rng.normal(scale=0.5, size=n)
    w = rng.normal(size=n)
    return Dataset(["x", "y", "z", "w"], np.column_stack([x, y, z, w]))


@pytest.fixture(scope="module")
def discrete_data() -> Dataset:
    rng = np.random.default_rng(1)
    n = 800
    z = rng.integers(0, 3, size=n)
    x = (z + rng.integers(0, 2, size=n)) % 3
    y = (z + rng.integers(0, 2, size=n)) % 3
    w = rng.integers(0, 3, size=n)
    return Dataset(["x", "y", "z", "w"],
                   np.column_stack([x, y, z, w]).astype(float),
                   discrete=["x", "y", "z", "w"])


def test_fisher_z_detects_marginal_dependence(continuous_data):
    test = FisherZTest(continuous_data)
    assert not test.test("x", "y").independent
    assert test.test("x", "w").independent


def test_fisher_z_detects_conditional_independence(continuous_data):
    test = FisherZTest(continuous_data)
    assert test.test("x", "y", ["z"]).independent


def test_fisher_z_low_level_interface(continuous_data):
    result = fisher_z(continuous_data.values, 0, 2)
    assert not result.independent
    assert 0.0 <= result.p_value <= 1.0


def test_fisher_z_insufficient_samples_keeps_edge():
    data = np.random.default_rng(0).normal(size=(4, 3))
    result = fisher_z(data, 0, 1, [2])
    assert not result.independent


def test_g_square_detects_dependence_and_conditional_independence(discrete_data):
    test = GSquareTest(discrete_data)
    assert not test.test("x", "z").independent
    assert test.test("x", "w").independent
    assert test.test("x", "y", ["z"]).independent


def test_g_square_low_level_interface():
    rng = np.random.default_rng(2)
    x = rng.integers(0, 2, 500)
    y = x.copy()
    result = g_square(x, y)
    assert not result.independent
    assert result.statistic > 100


def test_mixed_test_uses_fisher_for_continuous_pairs(continuous_data):
    mixed = MixedCITest(continuous_data)
    assert mixed.test("x", "y", ["z"]).independent
    assert not mixed.test("x", "z").independent


def test_mixed_test_uses_gsquare_for_small_discrete_tables(discrete_data):
    mixed = MixedCITest(discrete_data)
    result = mixed.test("x", "z")
    assert not result.independent


def test_ci_result_truthiness(continuous_data):
    test = FisherZTest(continuous_data)
    assert bool(test.test("x", "w"))
    assert not bool(test.test("x", "z"))


def test_vectorised_fisher_z_matches_scalar_form_exactly():
    """The array bands decide as the scalar form's p-value does, and the
    results computed from the kept correlations are the scalar results."""
    corr = np.array([0.0, -0.0, 0.5, -0.3, 1e-17, 0.9999999, -0.9999999])
    for n, k in [(50, 0), (50, 2), (3, 0)]:   # (3, 0): too few samples
        bands = Bands(_settled_bands(corr, n, k, 0.05), corr,
                      np.full(len(corr), n))
        scalar = [_fisher_z_from_correlation(c, n, k, 0.05)
                  for c in corr.tolist()]
        assert bands.results(k, 0.05) == scalar
        assert bands.band.tolist() == [int(r.independent) for r in scalar]


def test_mixed_batch_matches_single_tests_across_both_dispatch_paths(
        discrete_data):
    rng = np.random.default_rng(5)
    values = np.column_stack([discrete_data.values,
                              rng.normal(size=discrete_data.n_rows)])
    data = Dataset(["x", "y", "z", "w", "c"], values,
                   discrete=["x", "y", "z", "w"])
    mixed = MixedCITest(data)
    pairs = [("x", "z"), ("x", "c"), ("w", "y"), ("c", "z"), ("x", "w")]
    # Without conditioning both forms read the same covariance entries, so
    # they agree exactly; with it the batch goes through one Schur solve.
    assert mixed.test_batch(pairs) == [mixed.test(x, y) for x, y in pairs]
    for conditioning in (["z"], ["c"]):
        batch = mixed.test_batch(pairs, conditioning)
        single = [mixed.test(x, y, conditioning) for x, y in pairs]
        assert [r.independent for r in batch] == [r.independent for r in single]
        assert [r.p_value for r in batch] == pytest.approx(
            [r.p_value for r in single], rel=1e-9, abs=1e-12)


def test_g_square_tail_is_the_chi2_survival_function():
    """``chdtrc(dof, x)`` is the kernel of ``chi2.sf(x, dof)``, bit for bit."""
    rng = np.random.default_rng(3)
    statistics = rng.exponential(10.0, size=2000) * rng.choice(
        [0.01, 1.0, 10.0], size=2000)
    dofs = rng.integers(1, 400, size=2000)
    for statistic, dof in zip(statistics, dofs):
        assert float(special.chdtrc(int(dof), statistic)) == \
            float(stats.chi2.sf(statistic, int(dof)))


@pytest.mark.parametrize("module", ["repro.core", "repro.service",
                                    "repro.baselines", "repro.evaluation"])
def test_import_does_not_load_scipy_stats(module):
    """``scipy.stats`` takes about a second to import; the library's
    import path must not pay it."""
    code = f"import sys, {module}; print('scipy.stats' in sys.modules)"
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.stdout.strip() == "False"
