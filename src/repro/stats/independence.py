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
pass.  :class:`CachedCITest` memoises, through a :class:`CIDecisionCache`,
the decisions with two or more conditioning columns within one *epoch* —
a number the owner gives each dataset it tests on; no decision outlives
the epoch it was made in, so a relearn on grown data decides exactly as a
cold learn over the same rows.

:class:`FisherZTest`, :class:`MixedCITest` and :class:`CachedCITest` also
have an *index-space* form, ``test_index(i, j, Z)``, over the dataset's
column indices (names map to indices through ``column_index``).  The
skeleton search calls it directly; the name-based methods are thin
wrappers over it.  The marginal (empty conditioning set) case has an array
form as well, ``marginal_bands(first, second)``, which decides a whole
level-0 sweep as band codes (:class:`Bands`) from the Fisher z ratio bound,
without a ``log`` or ``erfc`` per element.  Singleton conditioning sets
(``|Z| = 1``) have an array form too: ``singleton_bands(first, second,
third)`` decides a whole block of tests from the cached covariance,
bit-equal to the scalar path, for the skeleton's level 1 and
Possible-D-Sep pruning.  A p-value is computed only for a reader that asks
for a :class:`CIResult`.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Protocol, Sequence

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
    # 2 * norm.sf(t) == erfc(t / sqrt(2)); math.erfc avoids scipy's
    # per-call distribution machinery on what is the hottest line of the
    # skeleton search.
    p_value = math.erfc(statistic / math.sqrt(2))
    return CIResult(independent=bool(p_value > alpha), p_value=p_value,
                    statistic=float(statistic))


#: Band codes of a decision: dependent or independent at ``alpha``;
#: ``_GUARD`` marks an element left to the scalar form.
_DEPENDENT, _INDEPENDENT = 0, 1
_GUARD = -1
#: Relative half-width of the guard band around the ratio bound inside
#: which :func:`_fisher_z_bands` leaves an element to the exact scalar
#: form.  Rounding moves the bound by ~1e-15 relative; the band is wide
#: enough to absorb that many times over and narrow enough to catch almost
#: nothing.
_GUARD_BAND = 1e-9


def _fisher_z_bands(corr: np.ndarray, n: int, k: int,
                    alpha: float) -> np.ndarray:
    """The decision of each :func:`_fisher_z_from_correlation`, without
    its ``log`` and ``erfc``, as ``int8`` band codes.

    ``p > alpha`` holds exactly when the ratio ``(1 + r) / (1 - r)`` lies
    strictly between ``exp(-b)`` and ``exp(b)``, with
    ``b = 2 sqrt(2) erfcinv(alpha) / sqrt(dof)``, so an element is
    independent when ``max(ratio, 1 / ratio)`` lies below ``exp(b)``.
    Within :data:`_GUARD_BAND` of the bound, for a ratio that is not a
    number, and for every element when ``alpha`` is subnormal (too few
    bits to bound) or ``alpha >= 1`` (which no p-value exceeds), the code
    is :data:`_GUARD`.  ``dof <= 0`` is dependent.
    """
    dof = n - k - 3
    if dof <= 0:
        return np.full(len(corr), _DEPENDENT, dtype=np.int8)
    if not (np.finfo(float).tiny <= alpha < 1.0):
        return np.full(len(corr), _GUARD, dtype=np.int8)
    ratio = (1 + corr) / (1 - corr)
    folded = np.maximum(ratio, 1 / ratio)
    bound = math.exp(2.0 * math.sqrt(2.0) * float(scipy_special.erfcinv(alpha))
                     / math.sqrt(dof))
    band = (folded < bound * (1 - _GUARD_BAND)).astype(np.int8)
    beyond = folded < bound * (1 + _GUARD_BAND)
    band[(beyond != band) | np.isnan(folded)] = _GUARD
    return band


def _settled_bands(corr: np.ndarray, n: int, k: int,
                   alpha: float) -> np.ndarray:
    """:func:`_fisher_z_bands`, the :data:`_GUARD` elements settled by the
    scalar form."""
    bands = _fisher_z_bands(corr, n, k, alpha)
    for e in np.flatnonzero(bands == _GUARD).tolist():
        bands[e] = _fisher_z_from_correlation(corr.item(e), n, k,
                                              alpha).independent
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
        return self.band == _INDEPENDENT

    def set_exact(self, e: int, result: CIResult) -> None:
        self.exact[e], self.rows[e] = result, -1
        self.band[e] = result.independent

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
        return self._bands(corr, len(conditioning)).results(
            len(conditioning), self._alpha)

    def _bands(self, corr: np.ndarray, k: int) -> Bands:
        n = self._data.n_rows
        return Bands(_settled_bands(corr, n, k, self._alpha), corr,
                     np.full(len(corr), n))

    def marginal_bands(self, first: np.ndarray, second: np.ndarray) -> Bands:
        """The :class:`Bands` of the marginal tests of ``first[k]`` and
        ``second[k]``.  The correlations are three gathers from the cached
        covariance and one vectorised normalisation; each element equals
        :meth:`test_index` without conditioning, bit for bit."""
        lo = np.minimum(first, second)
        hi = np.maximum(first, second)
        cov = self._stats.covariance()
        return self._bands(normalise_pairs(cov[lo, hi], cov[lo, lo],
                                           cov[hi, hi]), 0)

    def singleton_bands(self, first: np.ndarray, second: np.ndarray,
                        third: np.ndarray) -> Bands:
        """The :class:`Bands` of testing ``first[e]`` and ``second[e]``
        given ``third[e]``, from
        :meth:`SufficientStats.singleton_partial_correlations`; an element
        whose scalar form raises is :data:`_GUARD`, for :meth:`test_index`
        to tell."""
        corr, raises = self._stats.singleton_partial_correlations(
            first, second, third)
        bands = self._bands(corr, 1)
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
    are computed once per column per dataset no matter how many tests (or
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

    One :class:`SufficientStats` instance backs both member tests, so
    codes, cardinalities and the covariance matrix are derived once per
    dataset however many tests read them.
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
        are cached per dataset by the shared :class:`SufficientStats`, so
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

    def marginal_bands(self, first: np.ndarray, second: np.ndarray) -> Bands:
        """:meth:`FisherZTest.marginal_bands` with the G-test dispatch.

        Pairs of two discrete columns are checked one by one and, when
        eligible, G-tested in their given orientation, their results kept
        whole; every other pair keeps its Fisher z element.
        """
        bands = self._fisher.marginal_bands(first, second)
        flags = self._discrete_flags
        for k in np.flatnonzero(flags[first] & flags[second]).tolist():
            i, j = int(first[k]), int(second[k])
            if self._use_gsquare(i, j, ()):
                bands.set_exact(k, self._gsquare(i, j, ()))
        return bands

    def singleton_bands(self, first: np.ndarray, second: np.ndarray,
                        third: np.ndarray) -> Bands:
        """:meth:`FisherZTest.singleton_bands`, leaving every all-discrete
        triple to :meth:`test_index` (:data:`_GUARD`), which decides
        whether it takes the G-test."""
        bands = self._fisher.singleton_bands(first, second, third)
        flags = self._discrete_flags
        bands.band[flags[first] & flags[second] & flags[third]] = _GUARD
        return bands


# --------------------------------------------------------------------------
# CI-decision caching within an epoch
# --------------------------------------------------------------------------
@dataclass
class CICacheCounters:
    """Observability counters for one :class:`CIDecisionCache`.

    ``retests`` counts lookups of an entry stored at another epoch,
    which is dropped and tested again.  ``stale_reused`` always reads 0:
    no decision is served across epochs.
    """

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


class CIDecisionCache:
    """CI decisions keyed by :data:`CIKey`, served within one epoch.

    Keys come from :meth:`key`: the tested pair is unordered and the
    conditioning set is order-free, so ``test(y, x, [v, u])`` replays the
    decision ``test(x, y, [u, v])`` stored.  A lookup at the entry's own
    epoch is a hit; an entry from any other epoch is dropped and the
    caller tests again, so every decision served is a function of the
    data the caller tests on.  The owner numbers the epochs and gives
    every dataset its own: the learner uses its generation counter, which
    rises on every learn and update.  :class:`CachedCITest` stores here
    the decisions with two or more conditioning columns, which a search
    may meet more than once in one pass (the skeleton's later levels and
    Possible-D-Sep pruning); entries are LRU-evicted beyond
    ``max_entries``.
    """

    def __init__(self, alpha: float = 0.05,
                 max_entries: int = 500_000) -> None:
        self._alpha = alpha
        self._max_entries = max_entries
        # key -> (epoch, result), in store order.
        self._entries: OrderedDict[CIKey, tuple[int, CIResult]] = \
            OrderedDict()
        self.counters = CICacheCounters()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def alpha(self) -> float:
        return self._alpha

    @staticmethod
    def key(i: int, j: int, conditioning: Sequence[int] = ()) -> CIKey:
        """Canonical key of testing columns ``i``, ``j`` given ``conditioning``."""
        z = tuple(sorted(conditioning))
        return (i, j, z) if i < j else (j, i, z)

    def lookup(self, key: CIKey, epoch: int) -> CIResult | None:
        entry = self._entries.get(key)
        if entry is None:
            self.counters.misses += 1
            return None
        stored, result = entry
        if stored == epoch:
            self.counters.hits += 1
            return result
        self.counters.retests += 1
        del self._entries[key]
        return None

    def store(self, key: CIKey, epoch: int, result: CIResult) -> None:
        self._entries[key] = (epoch, result)
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every decision."""
        self._entries.clear()


class CachedCITest:
    """Wrap an index-space CI test with a :class:`CIDecisionCache`.

    ``inner`` is a :class:`FisherZTest` or :class:`MixedCITest` (anything
    with ``alpha``, ``column_index``, ``test_index``, ``marginal_bands``
    and ``singleton_bands``), with the cache's ``alpha``.  ``epoch``
    numbers the dataset ``inner`` tests on (see :class:`CIDecisionCache`).
    A test with two or more conditioning columns is
    looked up in the cache and, on a miss, tested and stored; every other
    call goes straight to ``inner``, whose array forms decide a whole
    skeleton level at once and cost less than a lookup per element.
    """

    def __init__(self, inner, cache: CIDecisionCache,
                 epoch: int) -> None:
        if inner.alpha != cache.alpha:
            raise ValueError("the inner test and the cache must share alpha")
        self._inner = inner
        self._cache = cache
        self._epoch = epoch

    @property
    def alpha(self) -> float:
        return self._inner.alpha

    @property
    def cache(self) -> CIDecisionCache:
        return self._cache

    @property
    def inner(self):
        return self._inner

    def column_index(self, name: str) -> int:
        return self._inner.column_index(name)

    def test(self, x: str, y: str,
             conditioning: Sequence[str] = ()) -> CIResult:
        idx = self._inner.column_index
        return self.test_index(idx(x), idx(y), [idx(c) for c in conditioning])

    def test_index(self, i: int, j: int,
                   conditioning: Sequence[int] = ()) -> CIResult:
        """:meth:`test` on column indices."""
        if len(conditioning) < 2:
            return self._inner.test_index(i, j, conditioning)
        key = CIDecisionCache.key(i, j, conditioning)
        result = self._cache.lookup(key, self._epoch)
        if result is None:
            result = self._inner.test_index(i, j, conditioning)
            self._cache.store(key, self._epoch, result)
        return result

    def marginal_bands(self, first: np.ndarray, second: np.ndarray
                       ) -> Bands:
        """``inner.marginal_bands``."""
        return self._inner.marginal_bands(first, second)

    def singleton_bands(self, first: np.ndarray, second: np.ndarray,
                        third: np.ndarray) -> Bands:
        """``inner.singleton_bands``."""
        return self._inner.singleton_bands(first, second, third)
