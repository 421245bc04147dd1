"""Conditional-independence tests used by the skeleton pruning phase.

The paper states that Unicorn prunes the fully connected constraint-respecting
skeleton "using standard statistical tests of independence.  In particular, we
use mutual info for discrete variables and Fisher z-test for continuous
variables".  ``FisherZTest`` and ``GSquareTest`` implement those two tests and
``MixedCITest`` dispatches between them (discretizing when a conditioning set
mixes types), which is what the Unicorn discovery pipeline instantiates by
default.

All tests expose the same interface: ``test(x, y, conditioning)`` returns a
:class:`CIResult` with the p-value and the decision at the configured
significance level.  Tests additionally expose ``test_batch`` for scoring
many pairs that share one conditioning set in a single sufficient-statistics
pass, and :class:`CIDecisionCache` / :class:`CachedCITest` let the
incremental model-maintenance layer reuse decisions across data epochs: a
decision whose p-value sits far from the significance threshold survives an
epoch bump untested, while borderline decisions are retested on fresh data.

:class:`FisherZTest`, :class:`MixedCITest` and :class:`CachedCITest` also
have an *index-space* form, ``test_index(i, j, Z)`` and
``test_batch_index(pairs, Z)``, over the dataset's column indices (names map
to indices through ``column_index``).  The skeleton search calls these
directly; the name-based methods are thin wrappers over them.  The marginal
(empty conditioning set) case has an array form as well,
``marginal_bands(first, second)``, which decides a whole level-0 sweep as
band codes (:class:`Bands`) from the Fisher z ratio bounds, without a
``log`` or ``erfc`` per element.  Singleton conditioning sets (``|Z| = 1``)
have an array form too: ``singleton_bands(first, second, third)`` decides a
whole block of tests from the cached covariance, bit-equal to the scalar
path, and :meth:`CachedCITest.singleton_block` /
:meth:`CachedCITest.settle_singletons` replay and record such a block for
the skeleton's level 1.  A p-value is computed only for a reader that asks
for a :class:`CIResult`.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np
from scipy import special as scipy_special

from repro.stats.dataset import Dataset
from repro.stats.entropy import mutual_information
from repro.stats.sufficient import SufficientStats, normalise_pairs


@dataclass(frozen=True)
class CIResult:
    """Outcome of one conditional-independence test."""

    independent: bool
    p_value: float
    statistic: float

    def __bool__(self) -> bool:
        return bool(self.independent)


class CITest(Protocol):
    """Protocol implemented by every conditional-independence test."""

    def test(self, x: str, y: str,
             conditioning: Sequence[str] = ()) -> CIResult:
        """Test ``x`` independent of ``y`` given ``conditioning``."""
        ...  # pragma: no cover


# --------------------------------------------------------------------------
# Fisher z test on partial correlations (continuous data)
# --------------------------------------------------------------------------
def _partial_correlation(data: np.ndarray, i: int, j: int,
                         conditioning: Sequence[int]) -> float:
    """Partial correlation of columns ``i`` and ``j`` given ``conditioning``.

    Computed by regressing both columns on the conditioning columns (via
    least squares) and correlating the residuals, which is numerically more
    stable than inverting the full correlation matrix when conditioning sets
    are small.
    """
    x = data[:, i]
    y = data[:, j]
    if conditioning:
        z = data[:, list(conditioning)]
        z = np.column_stack([z, np.ones(len(z))])
        beta_x, *_ = np.linalg.lstsq(z, x, rcond=None)
        beta_y, *_ = np.linalg.lstsq(z, y, rcond=None)
        x = x - z @ beta_x
        y = y - z @ beta_y
    sx = np.std(x)
    sy = np.std(y)
    if sx < 1e-12 or sy < 1e-12:
        return 0.0
    corr = float(np.corrcoef(x, y)[0, 1])
    if math.isnan(corr):
        return 0.0
    return max(-0.9999999, min(0.9999999, corr))


def _fisher_z_from_correlation(corr: float, n: int, k: int,
                               alpha: float) -> CIResult:
    """Map a partial correlation to a Fisher z :class:`CIResult`."""
    dof = n - k - 3
    if dof <= 0:
        # Not enough samples to decide; conservatively keep the edge.
        return CIResult(independent=False, p_value=0.0, statistic=float("inf"))
    z = 0.5 * math.log((1 + corr) / (1 - corr))
    statistic = math.sqrt(dof) * abs(z)
    # 2 * norm.sf(t) == erfc(t / sqrt(2)); both keep resolution in the far
    # tail where 1 - cdf underflows to exactly 0, which the CI-decision
    # cache's margin policy needs to tell a confident decision from a
    # borderline one.  math.erfc avoids scipy's per-call distribution
    # machinery on what is the hottest line of the skeleton search.
    p_value = math.erfc(statistic / math.sqrt(2))
    return CIResult(independent=bool(p_value > alpha), p_value=p_value,
                    statistic=float(statistic))


#: Band codes of a decision, in p-value order: dependent or independent at
#: ``alpha``, each confident or borderline by the margin policy
#: (:func:`_band`); ``_GUARD`` marks an element left to the scalar form.
_CONFIDENT_DEPENDENT, _DEPENDENT, _INDEPENDENT, _CONFIDENT_INDEPENDENT = \
    range(4)
_GUARD = -1
#: Relative half-width of the guard band around each ratio bound inside
#: which :func:`_fisher_z_bands` leaves an element to the exact scalar
#: form.  Rounding moves a bound by ~1e-15 relative; the band is wide
#: enough to absorb that many times over and narrow enough to catch almost
#: nothing.
_GUARD_BAND = 1e-9


def _band(p_value: float, statistic: float, alpha: float,
          margin_factor: float) -> int:
    """The band of one decision: independent when ``p > alpha``; confident
    when ``p >= alpha * margin_factor`` or ``p <= alpha / margin_factor``
    and the statistic is finite (never for the "cannot decide" sentinel)."""
    confident = math.isfinite(statistic)
    if p_value > alpha:
        return (_CONFIDENT_INDEPENDENT if confident
                and p_value >= alpha * margin_factor else _INDEPENDENT)
    return (_CONFIDENT_DEPENDENT if confident
            and p_value <= alpha / margin_factor else _DEPENDENT)


def _confident(band: np.ndarray) -> np.ndarray:
    return (band == _CONFIDENT_DEPENDENT) | (band == _CONFIDENT_INDEPENDENT)


def _fisher_z_bands(corr: np.ndarray, n: int, k: int, alpha: float,
                    margin_factor: float) -> np.ndarray:
    """The :func:`_band` of each :func:`_fisher_z_from_correlation`,
    without its ``log`` and ``erfc``, as ``int8``.

    ``p > a`` holds exactly when the ratio ``(1 + r) / (1 - r)`` lies
    strictly between ``exp(-b)`` and ``exp(b)``, with
    ``b = 2 sqrt(2) erfcinv(a) / sqrt(dof)`` (``b = 0`` for ``a >= 1``,
    which no p-value exceeds).  So the band of a ratio is the number of
    the three thresholds' bounds ``exp(b)`` that ``max(ratio, 1 / ratio)``
    lies below.  Within :data:`_GUARD_BAND` of a bound, for a ratio that
    is not a number, and for every element when a threshold is subnormal
    (too few bits to bound) or ``alpha >= 1``, the code is
    :data:`_GUARD`.  ``dof <= 0`` is dependent, never confident.
    """
    dof = n - k - 3
    if dof <= 0:
        return np.full(len(corr), _DEPENDENT, dtype=np.int8)
    thresholds = (alpha / margin_factor, alpha, alpha * margin_factor)
    if not (np.finfo(float).tiny <= thresholds[0] and alpha < 1.0):
        return np.full(len(corr), _GUARD, dtype=np.int8)
    ratio = (1 + corr) / (1 - corr)
    folded = np.maximum(ratio, 1 / ratio)
    band = np.zeros(len(corr), dtype=np.int8)
    beyond = np.zeros(len(corr), dtype=np.int8)
    for a in thresholds:
        bound = math.exp(2.0 * math.sqrt(2.0)
                         * float(scipy_special.erfcinv(min(a, 1.0)))
                         / math.sqrt(dof))
        band += folded < bound * (1 - _GUARD_BAND)
        beyond += folded < bound * (1 + _GUARD_BAND)
    band[(beyond != band) | np.isnan(folded)] = _GUARD
    return band


def _settled_bands(corr: np.ndarray, n: int, k: int, alpha: float,
                   margin_factor: float) -> np.ndarray:
    """:func:`_fisher_z_bands`, the :data:`_GUARD` elements settled by the
    scalar form."""
    bands = _fisher_z_bands(corr, n, k, alpha, margin_factor)
    for e in np.flatnonzero(bands == _GUARD).tolist():
        result = _fisher_z_from_correlation(corr.item(e), n, k, alpha)
        bands[e] = _band(result.p_value, result.statistic, alpha,
                         margin_factor)
    return bands


@dataclass
class Bands:
    """Band codes of a block of tests (:data:`_GUARD`: only ``test_index``
    can decide).  An element's :class:`CIResult` is
    :func:`_fisher_z_from_correlation` of ``corr[e]`` over ``rows[e]``
    rows, or, where ``rows[e] < 0`` (kept whole: a G-test), ``exact[e]``."""

    band: np.ndarray
    corr: np.ndarray
    rows: np.ndarray
    exact: dict[int, CIResult] = field(default_factory=dict)

    @property
    def independent(self) -> np.ndarray:
        return self.band >= _INDEPENDENT

    def set_exact(self, e: int, result: CIResult, alpha: float,
                  margin_factor: float) -> None:
        self.exact[e], self.rows[e] = result, -1
        self.band[e] = _band(result.p_value, result.statistic, alpha,
                             margin_factor)

    def take(self, at: np.ndarray) -> "Bands":
        """The elements ``at``, renumbered in that order."""
        rows = self.rows[at]
        return Bands(self.band[at], self.corr[at], rows,
                     {e: self.exact[at.item(e)]
                      for e in np.flatnonzero(rows < 0).tolist()})

    def results(self, k: int, alpha: float) -> list[CIResult]:
        """The :class:`CIResult` of every element, given ``k``
        conditioning columns; each p-value is computed here."""
        exact = self.exact
        return [exact[e] if n < 0
                else _fisher_z_from_correlation(r, n, k, alpha)
                for e, (r, n) in enumerate(zip(self.corr.tolist(),
                                               self.rows.tolist()))]


def _pair_arrays(pairs: Sequence[tuple[int, int]]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The first and the second columns of ``pairs`` as index arrays."""
    first, second = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return first, second


def fisher_z(data: np.ndarray, i: int, j: int,
             conditioning: Sequence[int] = (), alpha: float = 0.05) -> CIResult:
    """Fisher z conditional-independence test on raw column indices."""
    corr = _partial_correlation(data, i, j, conditioning)
    return _fisher_z_from_correlation(corr, data.shape[0], len(conditioning),
                                      alpha)


class FisherZTest:
    """Fisher z test of zero partial correlation on a :class:`Dataset`.

    Partial correlations come from incrementally maintained sufficient
    statistics (one Schur complement per conditioning set) instead of
    least-squares fits over the raw rows; a shared :class:`SufficientStats`
    can be injected so several tests reuse one set of running sums.
    """

    def __init__(self, data: Dataset, alpha: float = 0.05,
                 stats: SufficientStats | None = None) -> None:
        self._data = data
        self._alpha = alpha
        self._stats = stats if stats is not None else SufficientStats(data)

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def sufficient_stats(self) -> SufficientStats:
        return self._stats

    @property
    def n_columns(self) -> int:
        return self._data.n_columns

    def column_index(self, name: str) -> int:
        return self._data.column_index(name)

    def test(self, x: str, y: str,
             conditioning: Sequence[str] = ()) -> CIResult:
        idx = self._data.column_index
        return self.test_index(idx(x), idx(y), [idx(c) for c in conditioning])

    def test_index(self, i: int, j: int,
                   conditioning: Sequence[int] = ()) -> CIResult:
        """:meth:`test` on column indices."""
        corr = self._stats.partial_correlation(i, j, conditioning)
        return _fisher_z_from_correlation(corr, self._data.n_rows,
                                          len(conditioning), self._alpha)

    def test_batch(self, pairs: Sequence[tuple[str, str]],
                   conditioning: Sequence[str] = ()) -> list[CIResult]:
        """Test many pairs given one shared conditioning set.

        All pairwise partial correlations fall out of a single Schur
        complement over the union of the involved columns, so a whole
        skeleton level-0 sweep costs one covariance pass.
        """
        idx = self._data.column_index
        return self.test_batch_index([(idx(x), idx(y)) for x, y in pairs],
                                     [idx(c) for c in conditioning])

    def test_batch_index(self, pairs: Sequence[tuple[int, int]],
                         conditioning: Sequence[int] = ()
                         ) -> list[CIResult]:
        """:meth:`test_batch` on column indices.

        Every pair's correlation is read from the upper triangle of the
        involved block (``lo = min(i, j)``, ``hi = max(i, j)``); without
        conditioning this is :meth:`marginal_bands`.
        """
        if not pairs:
            return []
        first, second = _pair_arrays(pairs)
        if not conditioning:
            return self.marginal_bands(first, second).results(0, self._alpha)
        lo = np.minimum(first, second)
        hi = np.maximum(first, second)
        involved = np.union1d(lo, hi)
        matrix = self._stats.partial_correlations(involved, conditioning)
        corr = matrix[np.searchsorted(involved, lo),
                      np.searchsorted(involved, hi)]
        return self._bands(corr, len(conditioning), 1.0).results(
            len(conditioning), self._alpha)

    def _bands(self, corr: np.ndarray, k: int,
               margin_factor: float) -> Bands:
        n = self._data.n_rows
        return Bands(_settled_bands(corr, n, k, self._alpha, margin_factor),
                     corr, np.full(len(corr), n))

    def marginal_bands(self, first: np.ndarray, second: np.ndarray,
                       margin_factor: float = 1.0) -> Bands:
        """The :class:`Bands` of the marginal tests of ``first[k]`` and
        ``second[k]``.  The correlations are three gathers from the cached
        covariance and one vectorised normalisation; each element equals
        :meth:`test_index` without conditioning, bit for bit."""
        lo = np.minimum(first, second)
        hi = np.maximum(first, second)
        cov = self._stats.covariance()
        return self._bands(normalise_pairs(cov[lo, hi], cov[lo, lo],
                                           cov[hi, hi]), 0, margin_factor)

    def singleton_bands(self, first: np.ndarray, second: np.ndarray,
                        third: np.ndarray, margin_factor: float = 1.0
                        ) -> Bands:
        """The :class:`Bands` of testing ``first[e]`` and ``second[e]``
        given ``third[e]``, from
        :meth:`SufficientStats.singleton_partial_correlations` (which
        folds no new rows in); an element whose scalar form raises is
        :data:`_GUARD`, for :meth:`test_index` to tell."""
        corr, raises = self._stats.singleton_partial_correlations(
            first, second, third)
        bands = self._bands(corr, 1, margin_factor)
        if raises is not None:
            bands.band[raises] = _GUARD
        return bands


# --------------------------------------------------------------------------
# G-square / mutual information test (discrete data)
# --------------------------------------------------------------------------
def g_square(x: np.ndarray, y: np.ndarray,
             conditioning: np.ndarray | None = None,
             alpha: float = 0.05) -> CIResult:
    """G-test of conditional independence for discrete (coded) variables.

    The G statistic equals ``2 * N * ln(2) * I(x; y | z)`` where ``I`` is the
    empirical conditional mutual information in bits; it is compared with a
    chi-square distribution whose degrees of freedom are
    ``(|X|-1)(|Y|-1)*|Z|``.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    n = len(x)
    mi_bits = mutual_information(x, y, conditioning)
    statistic = 2.0 * n * math.log(2) * max(mi_bits, 0.0)

    x_levels = len(np.unique(x))
    y_levels = len(np.unique(y))
    if conditioning is None or conditioning.size == 0:
        z_cells = 1
    else:
        conditioning = np.asarray(conditioning)
        if conditioning.ndim == 1:
            conditioning = conditioning[:, None]
        z_cells = len(np.unique(
            [tuple(row) for row in conditioning.astype(np.int64)], axis=0))
    dof = max((x_levels - 1) * (y_levels - 1) * z_cells, 1)
    p_value = float(scipy_special.chdtrc(dof, statistic))
    return CIResult(independent=bool(p_value > alpha), p_value=p_value,
                    statistic=float(statistic))


class GSquareTest:
    """G-test on a :class:`Dataset`, discretizing continuous columns.

    Discretization codes live in the shared :class:`SufficientStats`, so they
    are computed once per column per data epoch no matter how many tests (or
    how many cooperating test objects) touch the column.
    """

    def __init__(self, data: Dataset, alpha: float = 0.05,
                 bins: int = 8, stats: SufficientStats | None = None) -> None:
        self._data = data
        self._alpha = alpha
        self._bins = bins
        self._stats = stats if stats is not None else SufficientStats(data)

    @property
    def alpha(self) -> float:
        return self._alpha

    def _coded(self, column: str) -> np.ndarray:
        return self._stats.codes(column, bins=self._bins)

    def test(self, x: str, y: str,
             conditioning: Sequence[str] = ()) -> CIResult:
        cond = None
        if conditioning:
            cond = np.column_stack([self._coded(c) for c in conditioning])
        return g_square(self._coded(x), self._coded(y), cond,
                        alpha=self._alpha)


# --------------------------------------------------------------------------
# Mixed dispatcher
# --------------------------------------------------------------------------
class MixedCITest:
    """Dispatch between Fisher z and the G-test based on column types.

    The G-test (mutual information) is used when both tested variables are
    discrete, the conditioning set is fully discrete, and the contingency
    table is small enough to be well populated at the available sample size;
    in every other case the Fisher z test on partial correlations is used
    (discrete codes are treated as numeric covariates, which is appropriate
    for the ordinal options that dominate systems configuration spaces and
    avoids the data fragmentation a fully stratified test would suffer at the
    low sample sizes Unicorn operates with).

    One :class:`SufficientStats` instance backs both member tests, so the
    dispatcher can stay alive across active-loop iterations: appended rows
    are folded into the running sums and the per-epoch caches refresh
    themselves.
    """

    def __init__(self, data: Dataset, alpha: float = 0.05,
                 bins: int = 8, max_cells_fraction: float = 0.2,
                 stats: SufficientStats | None = None) -> None:
        self._data = data
        self._alpha = alpha
        self._stats = stats if stats is not None else SufficientStats(data)
        self._fisher = FisherZTest(data, alpha=alpha, stats=self._stats)
        self._gsq = GSquareTest(data, alpha=alpha, bins=bins,
                                stats=self._stats)
        self._max_cells_fraction = max_cells_fraction
        self._names = data.columns
        self._discrete = [data.is_discrete(c) for c in self._names]
        self._discrete_flags = np.array(self._discrete, dtype=bool)

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def sufficient_stats(self) -> SufficientStats:
        return self._stats

    @property
    def n_columns(self) -> int:
        return self._data.n_columns

    def column_index(self, name: str) -> int:
        return self._data.column_index(name)

    def _use_gsquare(self, i: int, j: int,
                     conditioning: Sequence[int]) -> bool:
        """G-test eligibility of one index-space test.

        The discreteness flags are fixed per dataset and the cardinalities
        are cached per data epoch by the shared :class:`SufficientStats`, so
        the common mixed case (a continuous event on either side) costs two
        list reads.
        """
        discrete = self._discrete
        if not (discrete[i] and discrete[j]
                and all(discrete[k] for k in conditioning)):
            return False
        cardinality, names = self._stats.cardinality, self._names
        cells = 1
        for column in (i, j, *conditioning):
            cells *= cardinality(names[column])
        return cells <= max(self._max_cells_fraction * self._data.n_rows, 8)

    def test(self, x: str, y: str,
             conditioning: Sequence[str] = ()) -> CIResult:
        idx = self._data.column_index
        return self.test_index(idx(x), idx(y), [idx(c) for c in conditioning])

    def test_index(self, i: int, j: int,
                   conditioning: Sequence[int] = ()) -> CIResult:
        """:meth:`test` on column indices."""
        if self._use_gsquare(i, j, conditioning):
            return self._gsquare(i, j, conditioning)
        return self._fisher.test_index(i, j, conditioning)

    def _gsquare(self, i: int, j: int, conditioning: Sequence[int]
                 ) -> CIResult:
        names = self._names
        return self._gsq.test(names[i], names[j],
                              [names[k] for k in conditioning])

    def test_batch(self, pairs: Sequence[tuple[str, str]],
                   conditioning: Sequence[str] = ()) -> list[CIResult]:
        """Batch variant of :meth:`test` for one shared conditioning set."""
        idx = self._data.column_index
        return self.test_batch_index([(idx(x), idx(y)) for x, y in pairs],
                                     [idx(c) for c in conditioning])

    def test_batch_index(self, pairs: Sequence[tuple[int, int]],
                         conditioning: Sequence[int] = ()
                         ) -> list[CIResult]:
        """:meth:`test_batch` on column indices."""
        if not conditioning:
            return self.marginal_bands(*_pair_arrays(pairs)).results(
                0, self._alpha)
        gsquare = [self._use_gsquare(i, j, conditioning) for i, j in pairs]
        if not any(gsquare):
            return self._fisher.test_batch_index(pairs, conditioning)
        fisher = iter(self._fisher.test_batch_index(
            [pair for pair, g in zip(pairs, gsquare) if not g], conditioning))
        return [self._gsquare(i, j, conditioning) if g
                else next(fisher)
                for (i, j), g in zip(pairs, gsquare)]

    def marginal_bands(self, first: np.ndarray, second: np.ndarray,
                       margin_factor: float = 1.0) -> Bands:
        """:meth:`FisherZTest.marginal_bands` with the G-test dispatch.

        Pairs of two discrete columns are checked one by one and, when
        eligible, G-tested in their given orientation, their results kept
        whole; every other pair keeps its Fisher z element.
        """
        bands = self._fisher.marginal_bands(first, second, margin_factor)
        flags = self._discrete_flags
        for k in np.flatnonzero(flags[first] & flags[second]).tolist():
            i, j = int(first[k]), int(second[k])
            if self._use_gsquare(i, j, ()):
                bands.set_exact(k, self._gsquare(i, j, ()), self._alpha,
                                margin_factor)
        return bands

    def singleton_bands(self, first: np.ndarray, second: np.ndarray,
                        third: np.ndarray, margin_factor: float = 1.0
                        ) -> Bands:
        """:meth:`FisherZTest.singleton_bands`, leaving every all-discrete
        triple to :meth:`test_index` (:data:`_GUARD`), which decides
        whether it takes the G-test."""
        bands = self._fisher.singleton_bands(first, second, third,
                                             margin_factor)
        flags = self._discrete_flags
        bands.band[flags[first] & flags[second] & flags[third]] = _GUARD
        return bands


# --------------------------------------------------------------------------
# CI-decision caching across data epochs
# --------------------------------------------------------------------------
@dataclass
class CICacheCounters:
    """Observability counters for one :class:`CIDecisionCache`."""

    hits: int = 0
    misses: int = 0
    stale_reused: int = 0
    retests: int = 0

    @property
    def total_lookups(self) -> int:
        return self.hits + self.misses + self.stale_reused + self.retests

    def hit_rate(self) -> float:
        total = self.total_lookups
        if total == 0:
            return 0.0
        return (self.hits + self.stale_reused) / total


#: Cache key of one CI decision: ``(i, j, Z)`` over column indices with
#: ``i < j`` and ``Z`` the sorted tuple of conditioning columns.
CIKey = tuple[int, int, tuple[int, ...]]


def _conditioning_key(conditioning: Sequence[int]) -> tuple[int, ...]:
    z = tuple(conditioning)
    return tuple(sorted(z)) if len(z) > 1 else z


class CIDecisionCache:
    """Cache of CI decisions keyed by :data:`CIKey` and data epoch.

    Keys come from :meth:`key`: the tested pair is unordered and the
    conditioning set is order-free, so ``test(y, x, [v, u])`` replays the
    decision ``test(x, y, [u, v])`` stored.  Index-space calls from the
    skeleton search and name-based calls map onto the same keys and share
    the entries.

    A lookup at the entry's own epoch is always a hit.  After an epoch bump
    (new rows appended) the *margin policy* decides by the decision's
    :meth:`band`: a p-value outside
    ``(alpha / margin_factor, alpha * margin_factor)`` is far from the
    significance threshold, is overwhelmingly unlikely to flip from a
    handful of extra samples, and is served stale; a borderline decision
    is evicted so the caller retests it on the fresh data.  This is what
    makes the replayed skeleton search of an incremental update cheap —
    per iteration only the borderline fringe of the previous model is
    re-examined.  The array paths take the band from the Fisher z ratio
    (:func:`_fisher_z_bands`), not from a p-value.

    Even a confident decision is only served for ``max_stale_epochs``
    consecutive bumps before it is retested: p-values drift as samples
    accumulate, and an unbounded reuse window would let early-epoch decisions
    diverge arbitrarily from what the data now says.  The forced retests are
    spread across epochs (entries age at different times), so the
    per-iteration cost stays a fraction ``1 / max_stale_epochs`` of a full
    re-learn.

    The entries here are the decisions with two or more conditioning
    columns, LRU-evicted beyond ``max_entries``.  :class:`CachedCITest`
    keeps the marginal (``Z = ∅``) and singleton (``|Z| = 1``) decisions,
    which are all the tests of a search capped at ``max_condition_size=1``,
    in its own array table, the singletons under the same bound; it
    applies this margin
    policy to them through :meth:`serves` and :meth:`lookup_many`, which
    count in the same :attr:`counters`.  :meth:`clear` invalidates those
    tables too, and ``len`` counts only the entries here.
    """

    def __init__(self, alpha: float = 0.05, margin_factor: float = 8.0,
                 max_stale_epochs: int = 3,
                 max_entries: int = 500_000) -> None:
        if margin_factor < 1.0:
            raise ValueError("margin_factor must be >= 1")
        if max_stale_epochs < 1:
            raise ValueError("max_stale_epochs must be >= 1")
        self._alpha = alpha
        self._margin_factor = margin_factor
        self._max_stale_epochs = max_stale_epochs
        self._max_entries = max_entries
        # key -> (epoch, result, is_confident(result)), in store order.
        self._entries: OrderedDict[CIKey, tuple[int, CIResult, bool]] = \
            OrderedDict()
        # Bumped by clear(); a decision table older than this is invalid.
        self._generation = 0
        self.counters = CICacheCounters()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def margin_factor(self) -> float:
        return self._margin_factor

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def generation(self) -> int:
        """Number of :meth:`clear` calls so far."""
        return self._generation

    @staticmethod
    def key(i: int, j: int, conditioning: Sequence[int] = ()) -> CIKey:
        """Canonical key of testing columns ``i``, ``j`` given ``conditioning``."""
        z = _conditioning_key(conditioning)
        return (i, j, z) if i < j else (j, i, z)

    def band(self, result: CIResult) -> int:
        """The band code of a decision (:func:`_band`)."""
        return _band(result.p_value, result.statistic, self._alpha,
                     self._margin_factor)

    def is_confident(self, result: CIResult) -> bool:
        """True when the decision is far enough from alpha to survive epochs."""
        return bool(_confident(self.band(result)))

    def serves(self, stored: int, confident: bool, epoch: int) -> bool:
        """The margin policy for one existing entry, counted as a lookup.

        True (a hit or a stale reuse) when the entry stored at epoch
        ``stored`` is served at ``epoch``; False (a retest) when the caller
        must evict it and test again.  A stale entry is deliberately not
        re-stamped, so the decision is recomputed once its reuse window
        closes.
        """
        if stored == epoch:
            self.counters.hits += 1
            return True
        if confident and 0 < epoch - stored <= self._max_stale_epochs:
            self.counters.stale_reused += 1
            return True
        self.counters.retests += 1
        return False

    def servable(self, present: np.ndarray, stored: np.ndarray,
                 confident: np.ndarray, epoch: int) -> np.ndarray:
        """The mask :meth:`serves` would answer True for, without counting;
        ``present`` marks the entries that exist."""
        age = epoch - stored
        return present & ((age == 0) | (confident & (age > 0)
                                        & (age <= self._max_stale_epochs)))

    def lookup(self, key: CIKey, epoch: int) -> CIResult | None:
        entry = self._entries.get(key)
        if entry is None:
            self.counters.misses += 1
            return None
        stored, result, confident = entry
        if self.serves(stored, confident, epoch):
            return result
        del self._entries[key]
        return None

    def lookup_many(self, keys: np.ndarray, present: np.ndarray,
                    stored: np.ndarray, confident: np.ndarray,
                    epoch: int) -> np.ndarray:
        """:meth:`lookup` over the entries of a decision table.

        ``present``, ``stored`` and ``confident`` describe the table entry
        of each of ``keys``: whether it exists, its epoch and its confidence.
        Returns the mask of keys to (re)test.  The counters move as
        sequential :meth:`lookup` calls would move them, evictions included:
        a key repeated in one call is retested once and misses after that.
        """
        hits = int(np.count_nonzero(present & (stored == epoch)))
        fresh = ~self.servable(present, stored, confident, epoch)
        retest = fresh & present
        retests = int(np.unique(keys[retest]).size) if retest.any() else 0
        counters = self.counters
        counters.hits += hits
        counters.stale_reused += len(keys) - int(np.count_nonzero(fresh)) \
            - hits
        counters.retests += retests
        counters.misses += int(np.count_nonzero(fresh)) - retests
        return fresh

    def store(self, key: CIKey, epoch: int, result: CIResult) -> None:
        self._entries[key] = (epoch, result, self.is_confident(result))
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every decision, the decision tables' included."""
        self._entries.clear()
        self._generation += 1


class _DecisionTable:
    """CI decisions in parallel arrays, one slot per int64 key.

    Keys below ``dense`` are their own slots, allocated up front and never
    evicted.  Every other key gets the next free slot on its first store;
    ``_slots`` maps one such key to its slot, and :meth:`find` maps a
    whole key array through a sorted view of them, extended by a merge
    whenever new slots appeared since the last call.  ``present`` is false
    for an entry the margin policy evicted for a retest, and ``stamp``
    orders the entries by their last store.  A decision stored whole has
    ``rows`` -1 and its :class:`CIResult` in ``exact``.  Past
    ``dense + max_entries`` slots, the least recently stored eighth of the
    other entries is dropped.
    """

    _COLUMNS = {"key": np.int64, "present": bool, "epoch": np.int64,
                "band": np.int8, "corr": np.float64, "rows": np.int32,
                "stamp": np.int64}

    def __init__(self, dense: int, max_entries: int) -> None:
        self.dense = dense
        self.max_entries = max_entries
        self._clock = 0
        self.exact: dict[int, CIResult] = {}
        for name, dtype in self._COLUMNS.items():
            setattr(self, name, np.zeros(dense + 64, dtype=dtype))
        self.key[:dense] = np.arange(dense)
        self._keep(np.empty(0, dtype=np.intp))

    def _keep(self, sparse: np.ndarray) -> None:
        """Keep the dense slots and the ``sparse`` ones (ascending), the
        latter renumbered from ``dense``."""
        dense, size = self.dense, self.dense + len(sparse)
        for name in self._COLUMNS:
            column = getattr(self, name)
            column[dense:size] = column[sparse]
        self.size = size
        self._slots = dict(zip(self.key[dense:size].tolist(),
                               range(dense, size)))
        self.exact = {key: result for key, result in self.exact.items()
                      if key < dense or key in self._slots}
        self._sorted_keys = np.empty(0, dtype=np.int64)
        self._sorted_slots = np.empty(0, dtype=np.intp)
        self._viewed = dense

    def _allocate(self, count: int) -> np.ndarray:
        """``count`` new slots (grown amortised)."""
        capacity = len(self.key)
        if self.size + count > capacity:
            grown = max(2 * capacity, self.size + count)
            for name in self._COLUMNS:
                column = getattr(self, name)
                setattr(self, name, np.concatenate(
                    [column, np.zeros(grown - capacity, dtype=column.dtype)]))
        slots = np.arange(self.size, self.size + count)
        self.size += count
        return slots

    def find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(slots, found)`` of ``keys``; a key without a slot gets slot 0.
        ``found & present[slots]`` marks the present entries."""
        if not len(keys) or keys.max() < self.dense:
            return keys, np.ones(len(keys), dtype=bool)
        if self._viewed < self.size:
            new = np.arange(self._viewed, self.size)
            new = new[np.argsort(self.key[new], kind="stable")]
            at = np.searchsorted(self._sorted_keys, self.key[new])
            self._sorted_keys = np.insert(self._sorted_keys, at,
                                          self.key[new])
            self._sorted_slots = np.insert(self._sorted_slots, at, new)
            self._viewed = self.size
        if not len(self._sorted_keys):
            return (np.zeros(len(keys), dtype=np.intp),
                    np.zeros(len(keys), dtype=bool))
        at = np.searchsorted(self._sorted_keys, keys)
        np.minimum(at, len(self._sorted_keys) - 1, out=at)
        found = self._sorted_keys[at] == keys
        return np.where(found, self._sorted_slots[at], 0), found

    def slot(self, key: int) -> int | None:
        """The slot of a present ``key``, or ``None``."""
        slot = key if key < self.dense else self._slots.get(key)
        return slot if slot is not None and self.present.item(slot) else None

    def bands(self, keys: np.ndarray, slots: np.ndarray,
              served: np.ndarray) -> Bands:
        """The :class:`Bands` of ``slots`` (holding ``keys``), the entries
        stored whole resolved where ``served``."""
        rows = self.rows[slots].astype(np.int64)
        exact = self.exact
        return Bands(self.band[slots], self.corr[slots], rows,
                     {e: exact[keys.item(e)] for e in
                      np.flatnonzero(served & (rows < 0)).tolist()})

    def store(self, keys: np.ndarray, epoch: int, bands: Bands) -> None:
        """Store one decision per key, in the order given (keys unique)."""
        slots, found = self.find(keys)
        new = ~found
        if new.any():
            slots[new] = self._allocate(int(np.count_nonzero(new)))
            self.key[slots[new]] = keys[new]
            self._slots.update(zip(keys[new].tolist(), slots[new].tolist()))
        self.present[slots] = True
        self.epoch[slots] = epoch
        self.band[slots] = bands.band
        self.corr[slots] = bands.corr
        self.rows[slots] = bands.rows
        for e, result in bands.exact.items():
            self.exact[keys.item(e)] = result
        self.stamp[slots] = np.arange(self._clock, self._clock + len(slots))
        self._clock += len(slots)
        if self.size > self.dense + self.max_entries:
            self._evict()

    def _evict(self) -> None:
        """Drop retested sparse slots and the least recently stored
        eighth of the rest."""
        live = self.dense + np.flatnonzero(self.present[self.dense:self.size])
        keep = self.max_entries - self.max_entries // 8
        newest = np.argsort(self.stamp[live], kind="stable")[-keep:]
        self._keep(np.sort(live[newest]))


@dataclass
class SingletonBlock:
    """A block of ``|Z| = 1`` tests from :meth:`CachedCITest.singleton_block`.

    ``decided[e]`` is the decision the test of element ``e`` returns now:
    ``1`` independent, ``0`` dependent, or ``-1`` when only
    :meth:`CachedCITest.test_index` can tell.  The other fields are what
    :meth:`CachedCITest.settle_singletons` needs to count and store the
    elements a search performed; ``fresh`` holds the inner test's bands.
    """

    decided: np.ndarray
    keys: np.ndarray
    fresh: Bands
    present: np.ndarray
    stored: np.ndarray
    confident: np.ndarray
    epoch: int


class CachedCITest:
    """Wrap an index-space CI test with a :class:`CIDecisionCache`.

    ``inner`` is a :class:`FisherZTest` or :class:`MixedCITest` (anything
    with ``alpha``, ``n_columns``, ``column_index``, ``sufficient_stats``,
    ``test_index``, ``test_batch_index``, ``marginal_bands`` and
    ``singleton_bands``, whose decisions are ``p_value > alpha``), with the
    cache's ``alpha``.  ``epoch_fn`` supplies the current data epoch
    (normally the backing dataset's ``data_epoch``); every decision the
    inner test produces is recorded and replayed according to the cache's
    margin policy.

    Decisions with two or more conditioning columns live in the cache's
    dict.  Marginal and singleton decisions live in one array table here
    (:class:`_DecisionTable`), over ``P`` columns and the column pair
    ``lo < hi``: the marginal test of the pair is key ``lo * P + hi``, one
    of ``P²`` slots allocated up front, and its test given column ``z`` is
    key ``P² + (lo * P + hi) * P + z``, stored on demand.  Per entry the
    table keeps presence, epoch, band code, correlation and row count, 22
    bytes (38 with its key and store stamp), and no p-value: a reader that
    asks for a :class:`CIResult` gets one computed from the correlation
    and the row count at the entry's epoch, equal to the inner test's.
    G-test decisions and results of ``test_index`` and ``test_batch_index``
    are kept whole.  The singleton entries are bounded by the cache's
    ``max_entries`` and evicted by store order; on the Table 3 debugging
    workload (213 columns) they peak near 34k entries over 5.2k pairs, far
    below the default 500k, so eviction never runs there.

    :meth:`marginal_bands` replays a whole level-0 sweep from the table
    with array operations and hands only the misses to ``inner``.
    :meth:`singleton_block` and :meth:`settle_singletons` do the same for a
    skeleton level with ``|Z| = 1``, in two steps, because only the search
    knows which of the block's tests it performs.  ``test_index`` and
    ``test_batch_index`` with at most one conditioning column go through
    the same table.
    """

    def __init__(self, inner, cache: CIDecisionCache,
                 epoch_fn: Callable[[], int]) -> None:
        if inner.alpha != cache.alpha:
            raise ValueError("the inner test and the cache must share alpha")
        self._inner = inner
        self._cache = cache
        self._epoch_fn = epoch_fn
        self._alpha = inner.alpha
        self._n_columns = inner.n_columns
        self._table = self._new_table()
        self._generation = cache.generation

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def cache(self) -> CIDecisionCache:
        return self._cache

    @property
    def inner(self):
        return self._inner

    def column_index(self, name: str) -> int:
        return self._inner.column_index(name)

    def _new_table(self) -> _DecisionTable:
        return _DecisionTable(self._n_columns ** 2, self._cache.max_entries)

    def _decisions(self) -> _DecisionTable:
        """The decision table, emptied if the cache was cleared since."""
        if self._generation != self._cache.generation:
            self._table = self._new_table()
            self._generation = self._cache.generation
        return self._table

    def _keys(self, first: np.ndarray, second: np.ndarray,
              third: np.ndarray | int | None = None) -> np.ndarray:
        """Table keys of testing ``first[k]``, ``second[k]`` given
        ``third[k]`` (nothing when ``None``)."""
        n = self._n_columns
        pairs = np.minimum(first, second) * n + np.maximum(first, second)
        return pairs if third is None else n * n + pairs * n + third

    # ---------------------------------------------------------------- testing
    def test(self, x: str, y: str,
             conditioning: Sequence[str] = ()) -> CIResult:
        idx = self._inner.column_index
        return self.test_index(idx(x), idx(y), [idx(c) for c in conditioning])

    def _entries(self, conditioning: Sequence[int]):
        """``(key, lookup, store)`` of the decisions given
        ``conditioning``: the cache's dict for two or more columns, the
        table (results kept whole) otherwise."""
        if len(conditioning) > 1:
            return ((lambda i, j: CIDecisionCache.key(i, j, conditioning)),
                    self._cache.lookup, self._cache.store)
        third = conditioning[0] if conditioning else None
        return ((lambda i, j: int(self._keys(i, j, third))),
                self._table_lookup, self._table_store)

    def _table_lookup(self, key: int, epoch: int) -> CIResult | None:
        """:meth:`CIDecisionCache.lookup` of a table entry."""
        table = self._decisions()
        slot = table.slot(key)
        if slot is None:
            self._cache.counters.misses += 1
        elif self._cache.serves(table.epoch.item(slot),
                                _confident(table.band.item(slot)), epoch):
            return table.bands(np.array([key]), np.array([slot]),
                               np.ones(1, bool)).results(
                int(key >= table.dense), self._alpha)[0]
        else:
            table.present[slot] = False
        return None

    def _table_store(self, key: int, epoch: int, result: CIResult) -> None:
        bands = Bands(np.zeros(1, np.int8), np.zeros(1), np.zeros(1, int))
        bands.set_exact(0, result, self._alpha, self._cache.margin_factor)
        self._decisions().store(np.array([key]), epoch, bands)

    def test_index(self, i: int, j: int,
                   conditioning: Sequence[int] = ()) -> CIResult:
        """:meth:`test` on column indices."""
        key, lookup, store = self._entries(conditioning)
        key = key(i, j)
        epoch = self._epoch_fn()
        result = lookup(key, epoch)
        if result is None:
            result = self._inner.test_index(i, j, conditioning)
            store(key, epoch, result)
        return result

    def test_batch(self, pairs: Sequence[tuple[str, str]],
                   conditioning: Sequence[str] = ()) -> list[CIResult]:
        idx = self._inner.column_index
        return self.test_batch_index([(idx(x), idx(y)) for x, y in pairs],
                                     [idx(c) for c in conditioning])

    def test_batch_index(self, pairs: Sequence[tuple[int, int]],
                         conditioning: Sequence[int] = ()
                         ) -> list[CIResult]:
        """:meth:`test_batch` on column indices; only misses reach ``inner``.

        All pairs are looked up before any miss is tested and stored, so a
        pair repeated in one batch replays nothing from its own batch.
        """
        if not conditioning:
            return self.marginal_bands(*_pair_arrays(pairs)).results(
                0, self._alpha)
        key, lookup, store = self._entries(conditioning)
        epoch = self._epoch_fn()
        keys = [key(i, j) for i, j in pairs]
        results = [lookup(k, epoch) for k in keys]
        missing = [k for k, result in enumerate(results) if result is None]
        if missing:
            fresh = self._inner.test_batch_index(
                [pairs[k] for k in missing], conditioning)
            for k, result in zip(missing, fresh):
                store(keys[k], epoch, result)
                results[k] = result
        return results  # type: ignore[return-value]

    def marginal_bands(self, first: np.ndarray, second: np.ndarray
                       ) -> Bands:
        """The :class:`Bands` of the marginal tests of ``first[k]`` and
        ``second[k]``, replayed from the table; the keys the margin policy
        rejects (:meth:`CIDecisionCache.lookup_many`) go to
        ``inner.marginal_bands`` in one call, and are stored back, the last
        one of a repeated key winning, as sequential stores would have
        it."""
        table = self._decisions()
        epoch = self._epoch_fn()
        keys = self._keys(first, second)
        slots, found = table.find(keys)
        present = found & table.present[slots]
        fresh = self._cache.lookup_many(keys, present, table.epoch[slots],
                                        _confident(table.band[slots]),
                                        epoch)
        bands = table.bands(keys, slots, ~fresh)
        if fresh.any():
            at = np.flatnonzero(fresh)
            new = self._inner.marginal_bands(first[at], second[at],
                                             self._cache.margin_factor)
            bands.band[at] = new.band
            bands.corr[at] = new.corr
            bands.rows[at] = new.rows
            bands.exact.update((at.item(e), result)
                               for e, result in new.exact.items())
            keys = keys[at]
            last = np.sort(len(keys) - 1
                           - np.unique(keys[::-1], return_index=True)[1])
            table.store(keys[last], epoch, new.take(last))
        return bands

    def singleton_block(self, first: np.ndarray, second: np.ndarray,
                        third: np.ndarray) -> SingletonBlock:
        """The decisions of testing ``first[e]`` and ``second[e]`` given
        ``third[e]``, for a search to pick from; nothing is counted yet.

        A decision the margin policy would replay comes from the table's
        band, any other from ``inner.singleton_bands``.  The search then
        hands the elements it performed to :meth:`settle_singletons`, and
        runs :meth:`test_index` on any performed element whose decision is
        ``-1``.  The keys of one block must be unique.  Deciding a block
        folds no new rows into the inner test's sufficient statistics;
        settling fresh elements does, as testing them one at a time would,
        so the running sums round the same either way.
        """
        table = self._decisions()
        epoch = self._epoch_fn()
        keys = self._keys(first, second, third)
        slots, found = table.find(keys)
        present = found & table.present[slots]
        stored, band = table.epoch[slots], table.band[slots]
        confident = _confident(band)
        fresh = self._inner.singleton_bands(first, second, third,
                                            self._cache.margin_factor)
        replayed = self._cache.servable(present, stored, confident, epoch)
        band = np.where(replayed, band, fresh.band)
        decided = (band >= _INDEPENDENT).astype(np.int8)
        decided[band == _GUARD] = -1
        return SingletonBlock(decided, keys, fresh, present, stored,
                              confident, epoch)

    def settle_singletons(self, block: SingletonBlock,
                          performed: Sequence[int]) -> None:
        """Count the lookups of the ``performed`` elements of ``block`` (in
        any order; none of them ``-1``) and store their fresh decisions."""
        at = np.asarray(performed, dtype=np.intp)
        fresh = self._cache.lookup_many(
            block.keys[at], block.present[at], block.stored[at],
            block.confident[at], block.epoch)
        at = at[fresh]
        if not len(at):
            return
        # Fold the new rows in, as the tests performed one at a time would.
        self._inner.sufficient_stats.refresh()
        self._decisions().store(block.keys[at], block.epoch,
                                block.fresh.take(at))
