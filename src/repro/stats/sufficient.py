"""Sufficient statistics for incremental conditional-independence testing.

The active loop of Unicorn appends one measured configuration per iteration
and then re-estimates the causal model.  Re-running every CI test from the
raw data repeats the same O(n) reductions thousands of times per iteration;
:class:`SufficientStats` instead maintains the quantities the tests actually
need — per-column sums, the cross-product matrix ``X^T X``, discretization
codes and cardinalities — and updates them incrementally as rows arrive.

From the cross-product matrix every (partial) correlation follows by a Schur
complement, so a Fisher z test costs one small ``k x k`` solve instead of two
least-squares fits over the raw rows, and a *batch* of tests sharing one
conditioning set costs a single solve for all pairs at once
(:meth:`partial_correlations`).

Synchronisation is epoch-based: the backing :class:`~repro.stats.dataset.Dataset`
bumps ``data_epoch`` on every in-place append, and every accessor here calls
:meth:`refresh` first, which folds only the newly appended rows into the sums
and drops the per-epoch code caches.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.stats.dataset import Dataset
from repro.stats.discretize import discretize_column

#: Clamp for correlations so the Fisher transform stays finite.
_CORR_CLAMP = 0.9999999
#: Variances below this are treated as zero (constant column).
_VAR_EPS = 1e-24
#: Elements per pass of :meth:`SufficientStats.singleton_partial_correlations`.
_CHUNK = 1 << 14


def normalise(cov_ij: float, var_i: float, var_j: float) -> float:
    """Correlation from a covariance and two variances, clamped for Fisher z.

    A (near-)constant column has zero correlation with everything, and a NaN
    (from an overflowing or degenerate covariance) is read as zero as well.
    """
    if var_i < _VAR_EPS or var_j < _VAR_EPS:
        return 0.0
    r = cov_ij / math.sqrt(var_i * var_j)
    if math.isnan(r):
        return 0.0
    return max(-_CORR_CLAMP, min(_CORR_CLAMP, r))


def normalise_pairs(cov_ij: np.ndarray, var_i: np.ndarray,
                    var_j: np.ndarray) -> np.ndarray:
    """:func:`normalise` over arrays, bit for bit.

    Product, square root and quotient are single IEEE operations in both
    forms, so every element equals the scalar result exactly.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = cov_ij / np.sqrt(var_i * var_j)
    r[(var_i < _VAR_EPS) | (var_j < _VAR_EPS) | np.isnan(r)] = 0.0
    return np.clip(r, -_CORR_CLAMP, _CORR_CLAMP, out=r)


def normalise_block(block: np.ndarray) -> np.ndarray:
    """Correlation matrix of a (conditional) covariance block.

    Entry ``[a, b]`` and its mirror ``[b, a]`` both come from the upper
    triangle ``block[a, b]`` with ``a < b``, as :func:`normalise` gives it;
    the diagonal is 1.
    """
    t = len(block)
    rows, cols = np.triu_indices(t, 1)
    diag = np.diag(block)
    r = normalise_pairs(block[rows, cols], diag[rows], diag[cols])
    out = np.eye(t)
    out[rows, cols] = r
    out[cols, rows] = r
    return out


def _covariance(n: int, total: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Population covariance from running sums over ``n`` rows."""
    n = max(n, 1)
    mean = total / n
    return cross / n - np.outer(mean, mean)


def _singleton_terms(cov: np.ndarray) -> tuple:
    """What :meth:`SufficientStats.singleton_partial_correlations` reads of
    a covariance matrix: it flattened, its diagonal, the squares divided by
    the conditioning variance, and the mask of finite entries whose square
    overflows (``None`` when there are none)."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        squares = np.float_power(cov, 2.0)
        scaled = squares / np.diag(cov)
    overflow = np.isinf(squares) & np.isfinite(cov)
    return (cov.ravel(), np.diag(cov).copy(), scaled.ravel(),
            overflow.ravel() if overflow.any() else None)


class SufficientStats:
    """Incrementally maintained sufficient statistics over a dataset."""

    def __init__(self, data: Dataset) -> None:
        self._data = data
        p = data.n_columns
        self._n = 0
        self._sum = np.zeros(p)
        self._cross = np.zeros((p, p))
        # Per-column shift (the first observed row) applied before
        # accumulating: covariance is shift-invariant, and centering near the
        # data keeps ``cross/n - mean*mean`` from catastrophically cancelling
        # for columns with large magnitudes (timestamps, byte counts).
        self._shift: np.ndarray | None = None
        self._epoch = -1
        self._codes: dict[str, np.ndarray] = {}
        self._cardinality: dict[str, int] = {}
        self._cov: np.ndarray | None = None
        self._cov_rows: list[list[float]] | None = None
        self._singleton_terms: tuple | None = None
        self.refresh()

    # --------------------------------------------------------------- syncing
    @property
    def data(self) -> Dataset:
        return self._data

    @property
    def n_rows(self) -> int:
        self.refresh()
        return self._n

    @property
    def epoch(self) -> int:
        """Data epoch these statistics are synchronised with."""
        self.refresh()
        return self._epoch

    def _synced(self) -> bool:
        return (self._epoch == self._data.data_epoch
                and self._n == self._data.n_rows)

    def _folded(self) -> tuple[int, np.ndarray, np.ndarray,
                               np.ndarray | None]:
        """``(n, sum, cross, shift)`` with the rows appended since the last
        sync folded in; the running sums themselves are left as they are."""
        n, total, cross, shift = self._n, self._sum, self._cross, self._shift
        if self._data.n_rows < n:
            # Rows can only be appended in place; anything else means the
            # dataset was rebuilt underneath us — start over.
            n, shift = 0, None
            total, cross = np.zeros_like(total), np.zeros_like(cross)
        new = self._data.values[n:]
        if len(new):
            if shift is None:
                shift = new[0].copy()
            shifted = new - shift
            total = total + shifted.sum(axis=0)
            cross = cross + shifted.T @ shifted
            n = self._data.n_rows
        return n, total, cross, shift

    def refresh(self) -> None:
        """Fold rows appended since the last sync into the running sums."""
        if self._synced():
            return
        self._n, self._sum, self._cross, self._shift = self._folded()
        self._epoch = self._data.data_epoch
        # Quantile bin edges move with the data, so codes cannot be updated
        # incrementally; they are recomputed lazily, once per epoch.  The
        # covariance matrix is likewise re-derived (cheaply, from the sums)
        # on first use after an epoch bump.
        self._codes.clear()
        self._cardinality.clear()
        self._cov = None
        self._cov_rows = None
        self._singleton_terms = None

    # ------------------------------------------------------------- moments
    def means(self) -> np.ndarray:
        self.refresh()
        means = self._sum / max(self._n, 1)
        if self._shift is not None:
            means = means + self._shift
        return means

    def covariance(self) -> np.ndarray:
        """Population covariance matrix derived from the running sums.

        Cached per data epoch: within one discovery pass thousands of CI
        tests share the same matrix.
        """
        self.refresh()
        if self._cov is None:
            self._cov = _covariance(self._n, self._sum, self._cross)
        return self._cov

    def _covariance_rows(self) -> list[list[float]]:
        """:meth:`covariance` as nested Python floats, cached per epoch.

        Scalar arithmetic on Python floats is several times cheaper than on
        numpy scalars and rounds identically (both are IEEE doubles).
        """
        self.refresh()
        if self._cov_rows is None:
            self._cov_rows = self.covariance().tolist()
        return self._cov_rows

    def correlation(self, i: int, j: int) -> float:
        cov = self.covariance()
        return normalise(cov[i, j], cov[i, i], cov[j, j])

    # ------------------------------------------- partial correlations (Schur)
    def partial_correlations(self, targets: Sequence[int],
                             conditioning: Sequence[int] = ()
                             ) -> np.ndarray:
        """Partial correlations of every ``targets`` pair given ``conditioning``.

        Computed from the covariance matrix by one Schur complement:
        ``S = C_TT - C_TZ C_ZZ^{-1} C_ZT`` is the conditional covariance of
        the target block, and normalising its off-diagonal entries yields the
        partial correlations — the same quantity as correlating the residuals
        of per-column least-squares regressions on the conditioning block,
        without touching the raw rows.
        """
        cov = self.covariance()
        t = list(targets)
        block = cov[np.ix_(t, t)]
        z = list(conditioning)
        if z:
            czz = cov[np.ix_(z, z)]
            ctz = cov[np.ix_(t, z)]
            try:
                solved = np.linalg.solve(czz, ctz.T)
            except np.linalg.LinAlgError:
                solved = np.linalg.pinv(czz) @ ctz.T
            block = block - ctz @ solved
        return normalise_block(block)

    def partial_correlation(self, i: int, j: int,
                            conditioning: Sequence[int] = ()) -> float:
        z = list(conditioning)
        if len(z) <= 1:
            # Scalar fast path for the dominant cases of the skeleton search
            # (empty and singleton conditioning sets): plain arithmetic on
            # cached covariance entries, no submatrix assembly or solve.
            cov = self._covariance_rows()
            cov_i, cov_j = cov[i], cov[j]
            if not z:
                return normalise(cov_i[j], cov_i[i], cov_j[j])
            k = z[0]
            ckk = cov[k][k]
            if ckk < _VAR_EPS:
                return normalise(cov_i[j], cov_i[i], cov_j[j])
            s_ij = cov_i[j] - cov_i[k] * cov_j[k] / ckk
            s_ii = cov_i[i] - cov_i[k] ** 2 / ckk
            s_jj = cov_j[j] - cov_j[k] ** 2 / ckk
            return normalise(s_ij, s_ii, s_jj)
        return float(self.partial_correlations([i, j], z)[0, 1])

    def singleton_partial_correlations(
            self, first: np.ndarray, second: np.ndarray, third: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """:meth:`partial_correlation` of ``first[e]`` and ``second[e]``
        given ``third[e]``, over arrays, bit for bit.

        The scalar form squares a covariance with Python's ``**``, which
        calls libm ``pow`` and can differ from ``x * x`` in the last bit;
        ``np.float_power`` calls the same ``pow``.  The squares divided by
        the conditioning variance are one matrix per data epoch, so an
        element costs gathers and a few IEEE operations, each rounding as
        its scalar counterpart.  Returns the correlations and the mask of
        elements whose scalar form raises ``OverflowError`` (a finite
        covariance whose square overflows), or ``None`` when there are
        none; those elements' correlations are meaningless.  Unlike every
        other accessor this one does not :meth:`refresh`: it reads the data
        as it is now but leaves the running sums as they are.
        """
        if not self._synced():
            # Rows appended since the last sync are read without folding
            # them in.  Sums folded in other chunks round differently, so
            # when they are folded is left to the tests a caller performs.
            terms = _singleton_terms(_covariance(*self._folded()[:3]))
        else:
            if self._singleton_terms is None:
                self._singleton_terms = _singleton_terms(self.covariance())
            terms = self._singleton_terms
        flat, diag, scaled, overflow = terms
        p = len(diag)
        corr = np.empty(len(first))
        raises = None if overflow is None else np.zeros(len(first), bool)
        # Chunks bound the temporaries of a large block.
        for at in range(0, len(first), _CHUNK):
            i, j, k = (index[at:at + _CHUNK] for index in (first, second,
                                                            third))
            ik = i * p + k
            jk = j * p + k
            c_ij = flat[i * p + j]
            c_ii, c_jj, c_kk = diag[i], diag[j], diag[k]
            with np.errstate(over="ignore", divide="ignore",
                             invalid="ignore"):
                s_ij = c_ij - flat[ik] * flat[jk] / c_kk
                s_ii = c_ii - scaled[ik]
                s_jj = c_jj - scaled[jk]
            # A (near-)constant conditioning column leaves the marginal.
            flat_k = c_kk < _VAR_EPS
            if flat_k.any():
                s_ij[flat_k] = c_ij[flat_k]
                s_ii[flat_k] = c_ii[flat_k]
                s_jj[flat_k] = c_jj[flat_k]
            corr[at:at + _CHUNK] = normalise_pairs(s_ij, s_ii, s_jj)
            if raises is not None:
                raises[at:at + _CHUNK] = (overflow[ik] | overflow[jk]) \
                    & ~flat_k
        return corr, raises

    # ----------------------------------------------------- discrete summaries
    def codes(self, column: str, bins: int = 8) -> np.ndarray:
        """Discretization codes for one column, cached per data epoch."""
        self.refresh()
        key = f"{column}#{bins}"
        if key not in self._codes:
            self._codes[key] = discretize_column(
                self._data.column(column), bins=bins,
                already_discrete=self._data.is_discrete(column))
        return self._codes[key]

    def cardinality(self, column: str) -> int:
        """Number of distinct values in a column, cached per data epoch."""
        self.refresh()
        if column not in self._cardinality:
            self._cardinality[column] = int(
                np.unique(self._data.column(column)).size)
        return self._cardinality[column]
