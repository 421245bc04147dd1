"""Sufficient statistics for incremental conditional-independence testing.

The active loop of Unicorn appends one measured configuration per iteration
and then re-estimates the causal model.  Re-running every CI test from the
raw data repeats the same O(n) reductions thousands of times per iteration;
:class:`SufficientStats` instead holds the quantities the tests actually
need — per-column sums, the cross-product matrix ``X^T X``, discretization
codes and cardinalities — over one dataset.

From the cross-product matrix every (partial) correlation follows by a Schur
complement, so a Fisher z test costs one small ``k x k`` solve instead of two
least-squares fits over the raw rows, and a *batch* of tests sharing one
conditioning set costs a single solve for all pairs at once
(:meth:`partial_correlations`).

Statistics are values, like the :class:`~repro.stats.dataset.Dataset` they
summarise: :meth:`SufficientStats.extended` returns new statistics over the
dataset with rows appended, folding only the new rows into a copy of the
running sums, and leaves the statistics it was called on unchanged.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.stats.dataset import Dataset
from repro.stats.discretize import discretize_matrix

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
    """Sufficient statistics over one dataset.

    The constructor folds every row of ``data`` as one block;
    :meth:`extended` continues the running sums over appended rows.
    Everything else (covariance, codes, cardinalities) is derived lazily
    from the sums or the data and cached for the life of the instance.
    """

    def __init__(self, data: Dataset) -> None:
        p = data.n_columns
        self._start(data, 0, np.zeros(p), np.zeros((p, p)), None)
        self._fold(data.values)

    def _start(self, data: Dataset, n: int, total: np.ndarray,
               cross: np.ndarray, shift: np.ndarray | None) -> None:
        self._data = data
        self._n = n
        self._sum = total
        self._cross = cross
        self._shift = shift
        self._codes: dict[str, np.ndarray] = {}
        self._cardinality: dict[str, int] = {}
        self._cov: np.ndarray | None = None
        self._cov_rows: list[list[float]] | None = None
        self._singleton_terms: tuple | None = None

    def _fold(self, block: np.ndarray) -> None:
        """Add ``block``'s rows to the running sums, as one block."""
        if not len(block):
            return
        # Per-column shift (the first observed row) applied before
        # accumulating: covariance is shift-invariant, and centering near the
        # data keeps ``cross/n - mean*mean`` from catastrophically cancelling
        # for columns with large magnitudes (timestamps, byte counts).
        if self._shift is None:
            self._shift = block[0].copy()
        shifted = block - self._shift
        self._sum = self._sum + shifted.sum(axis=0)
        self._cross = self._cross + shifted.T @ shifted
        self._n += len(block)

    def extended(self, rows: Sequence[Mapping[str, float]]
                 ) -> "SufficientStats":
        """Statistics over ``self.data.append_rows(rows)``.

        The running sums and the shift carry over and the new rows are
        folded as one block, so the sums equal those of statistics that
        had folded the same blocks in turn, bit for bit (summing every row
        from scratch would round differently).  ``self`` is unchanged.
        """
        stats = SufficientStats.__new__(SufficientStats)
        # Sharing the sum arrays is safe: ``_fold`` rebinds them, never
        # writes into them.
        stats._start(self._data.append_rows(rows), self._n, self._sum,
                     self._cross, self._shift)
        stats._fold(stats._data.values[self._n:])
        return stats

    @property
    def data(self) -> Dataset:
        return self._data

    @property
    def n_rows(self) -> int:
        return self._n

    # ------------------------------------------------------------- moments
    def means(self) -> np.ndarray:
        means = self._sum / max(self._n, 1)
        if self._shift is not None:
            means = means + self._shift
        return means

    def covariance(self) -> np.ndarray:
        """Population covariance matrix derived from the running sums.

        Cached: within one discovery pass thousands of CI tests share the
        same matrix.
        """
        if self._cov is None:
            self._cov = _covariance(self._n, self._sum, self._cross)
        return self._cov

    def _covariance_rows(self) -> list[list[float]]:
        """:meth:`covariance` as nested Python floats, cached.

        Scalar arithmetic on Python floats is several times cheaper than on
        numpy scalars and rounds identically (both are IEEE doubles).
        """
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
        the conditioning variance are one cached matrix, so an
        element costs gathers and a few IEEE operations, each rounding as
        its scalar counterpart.  Returns the correlations and the mask of
        elements whose scalar form raises ``OverflowError`` (a finite
        covariance whose square overflows), or ``None`` when there are
        none; those elements' correlations are meaningless.
        """
        if self._singleton_terms is None:
            self._singleton_terms = _singleton_terms(self.covariance())
        flat, diag, scaled, overflow = self._singleton_terms
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
        """Discretization codes for one column, cached."""
        return self.column_codes([column], bins=bins)[0]

    def column_codes(self, columns: Sequence[str],
                     bins: int = 8) -> list[np.ndarray]:
        """Codes for several columns; the uncached ones in one column pass."""
        missing = [c for c in columns if f"{c}#{bins}" not in self._codes]
        if missing:
            index = [self._data.column_index(c) for c in missing]
            coded = discretize_matrix(
                self._data.values[:, index], bins=bins,
                discrete_mask=[self._data.is_discrete(c) for c in missing])
            self._codes.update(zip([f"{c}#{bins}" for c in missing], coded.T))
        return [self._codes[f"{c}#{bins}"] for c in columns]

    def cardinality(self, column: str) -> int:
        """Number of distinct values in a column, cached."""
        if column not in self._cardinality:
            self._cardinality[column] = int(
                np.unique(self._data.column(column)).size)
        return self._cardinality[column]
