"""Property-based tests: incremental SufficientStats vs naive recomputation.

:class:`~repro.stats.sufficient.SufficientStats` folds appended rows into
running sums and serves (partial) correlations via Schur complements; these
tests grow statistics through randomly sized append batches (each one
:meth:`~repro.stats.sufficient.SufficientStats.extended` call, which
returns new statistics over a new dataset) and require the incremental
answers to match a naive
from-scratch recomputation over the raw rows to 1e-9 — means, covariances,
partial correlations, and the batch Fisher-z results the skeleton search
consumes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.stats.dataset import Dataset
from repro.stats.independence import FisherZTest, fisher_z
from repro.stats.sufficient import SufficientStats

#: Tolerance required by the incremental-vs-naive contract.
ATOL = 1e-9


@st.composite
def growth_plans(draw):
    """A dataset shape plus a plan of append batches."""
    n_cols = draw(st.integers(min_value=2, max_value=5))
    n_initial = draw(st.integers(min_value=10, max_value=40))
    batches = draw(st.lists(st.integers(min_value=1, max_value=10),
                            min_size=1, max_size=4))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    scale = draw(st.floats(min_value=0.5, max_value=50.0))
    offset = draw(st.floats(min_value=-1e3, max_value=1e3))
    return n_cols, n_initial, batches, seed, scale, offset


def _draw_rows(rng, columns, n, scale, offset):
    values = rng.normal(size=(n, len(columns))) * scale + offset
    return [dict(zip(columns, row)) for row in values]


def _naive_partial_correlation(values: np.ndarray, i: int, j: int,
                               conditioning: list[int]) -> float:
    """From-scratch partial correlation via least-squares residuals."""
    x = values[:, i].astype(float)
    y = values[:, j].astype(float)
    if conditioning:
        z = np.column_stack([values[:, conditioning],
                             np.ones(len(values))])
        x = x - z @ np.linalg.lstsq(z, x, rcond=None)[0]
        y = y - z @ np.linalg.lstsq(z, y, rcond=None)[0]
    sx, sy = np.std(x), np.std(y)
    if sx < 1e-12 or sy < 1e-12:
        return 0.0
    r = float(np.corrcoef(x, y)[0, 1])
    if np.isnan(r):
        return 0.0
    return max(-0.9999999, min(0.9999999, r))


def _grown_dataset_and_stats(plan):
    """Build (dataset, stats, row counts) following a growth plan.

    The stats are created over the initial rows and extended batch by
    batch, so every batch exercises the incremental fold.
    """
    n_cols, n_initial, batches, seed, scale, offset = plan
    rng = np.random.default_rng(seed)
    columns = [f"c{i}" for i in range(n_cols)]
    data = Dataset(columns, rng.normal(size=(n_initial, n_cols)) * scale
                   + offset)
    stats = SufficientStats(data)
    checkpoints = []
    for batch in batches:
        stats = stats.extended(_draw_rows(rng, columns, batch, scale,
                                          offset))
        checkpoints.append(stats.n_rows)
    return stats.data, stats, checkpoints


@given(growth_plans())
@settings(max_examples=40, deadline=None)
def test_moments_match_naive_recomputation_across_epochs(plan):
    data, stats, checkpoints = _grown_dataset_and_stats(plan)
    for n_rows in checkpoints:
        assert n_rows <= data.n_rows
    values = data.values
    n = data.n_rows
    assert stats.n_rows == n
    # Moments scale with the data, so compare them relatively; the strict
    # 1e-9 absolute contract applies to the normalised quantities below.
    np.testing.assert_allclose(stats.means(), values.mean(axis=0),
                               rtol=1e-9, atol=ATOL)
    centered = values - values.mean(axis=0)
    naive_cov = centered.T @ centered / n
    np.testing.assert_allclose(stats.covariance(), naive_cov,
                               rtol=1e-9, atol=ATOL)


@given(growth_plans(), st.data())
@settings(max_examples=40, deadline=None)
def test_partial_correlations_match_naive_recomputation(plan, payload):
    data, stats, _ = _grown_dataset_and_stats(plan)
    columns = list(range(data.n_columns))
    i, j = payload.draw(
        st.lists(st.sampled_from(columns), min_size=2, max_size=2,
                 unique=True), label="pair")
    remaining = [c for c in columns if c not in (i, j)]
    k = payload.draw(st.integers(0, min(2, len(remaining))), label="|Z|")
    conditioning = remaining[:k]

    incremental = stats.partial_correlation(i, j, conditioning)
    naive = _naive_partial_correlation(data.values, i, j, conditioning)
    assert abs(incremental - naive) < ATOL

    # The all-pairs batch path (one Schur complement) must agree with the
    # pairwise path entry by entry.
    matrix = stats.partial_correlations(columns[:3] if len(columns) >= 3
                                        else columns, conditioning=[])
    targets = columns[:3] if len(columns) >= 3 else columns
    for a_pos, a in enumerate(targets):
        for b_pos, b in enumerate(targets):
            if a_pos < b_pos:
                naive_ab = _naive_partial_correlation(data.values, a, b, [])
                assert abs(matrix[a_pos, b_pos] - naive_ab) < ATOL


@given(growth_plans())
@settings(max_examples=30, deadline=None)
def test_batch_fisher_z_matches_raw_data_tests(plan):
    data, stats, _ = _grown_dataset_and_stats(plan)
    test = FisherZTest(data, alpha=0.05, stats=stats)
    columns = list(range(data.n_columns))
    pairs = [(f"c{a}", f"c{b}") for a in columns for b in columns if a < b]
    conditionings = [[]]
    if data.n_columns > 2:
        spare = [c for c in columns if c not in (0, 1)]
        pairs_cond = [("c0", "c1")]
        conditionings.append([f"c{c}" for c in spare[:2]])
    else:
        pairs_cond = pairs

    for conditioning in conditionings:
        wanted = pairs if not conditioning else pairs_cond
        batch = test.test_batch(wanted, conditioning)
        cond_idx = [int(c[1:]) for c in conditioning]
        for (x, y), result in zip(wanted, batch):
            naive = fisher_z(data.values, int(x[1:]), int(y[1:]),
                             cond_idx, alpha=0.05)
            assert abs(result.p_value - naive.p_value) < ATOL
            assert result.independent == naive.independent
            if np.isfinite(naive.statistic):
                assert abs(result.statistic - naive.statistic) < 1e-6


@given(growth_plans())
@settings(max_examples=30, deadline=None)
def test_grown_stats_match_fresh_stats_over_final_data(plan):
    """Stats grown batch by batch equal stats built from the final matrix."""
    data, stats, _ = _grown_dataset_and_stats(plan)
    fresh = SufficientStats(Dataset(data.columns, data.values))
    np.testing.assert_allclose(stats.means(), fresh.means(),
                               rtol=1e-9, atol=ATOL)
    np.testing.assert_allclose(stats.covariance(), fresh.covariance(),
                               rtol=1e-9, atol=ATOL)
