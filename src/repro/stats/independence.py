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
``marginal_arrays(first, second)``, which returns ``(p_value, statistic)``
arrays without building a :class:`CIResult` per pair; the skeleton's level-0
sweep is one such call.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np
from scipy import stats as scipy_stats

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


def _fisher_z_arrays(corr: np.ndarray, n: int, k: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """p-values and statistics of :func:`_fisher_z_from_correlation` over
    an array, bit for bit.

    The ratio, the scaling and the division by sqrt(2) run in numpy: each is
    one IEEE operation, so the array form rounds exactly as the scalar one.
    ``log`` and ``erfc`` stay per-element ``math`` calls, because numpy's
    vectorised ``log`` may differ from libm in the last bit.
    """
    dof = n - k - 3
    if dof <= 0:
        return np.zeros(len(corr)), np.full(len(corr), np.inf)
    log = math.log
    ratios = ((1 + corr) / (1 - corr)).tolist()
    statistics = math.sqrt(dof) * np.abs(
        np.array([0.5 * log(q) for q in ratios]))
    p_values = np.fromiter(
        map(math.erfc, (statistics / math.sqrt(2)).tolist()), float,
        len(ratios))
    return p_values, statistics


def _results(p_values: np.ndarray, statistics: np.ndarray,
             alpha: float) -> list[CIResult]:
    """One :class:`CIResult` per element of the decision arrays."""
    return [CIResult(p > alpha, p, statistic)
            for p, statistic in zip(p_values.tolist(), statistics.tolist())]


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
        conditioning this is :meth:`marginal_arrays`.
        """
        if not pairs:
            return []
        first, second = _pair_arrays(pairs)
        if not conditioning:
            return _results(*self.marginal_arrays(first, second), self._alpha)
        lo = np.minimum(first, second)
        hi = np.maximum(first, second)
        involved = np.union1d(lo, hi)
        matrix = self._stats.partial_correlations(involved, conditioning)
        corr = matrix[np.searchsorted(involved, lo),
                      np.searchsorted(involved, hi)]
        return _results(*_fisher_z_arrays(corr, self._data.n_rows,
                                          len(conditioning)), self._alpha)

    def marginal_arrays(self, first: np.ndarray, second: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """``(p_value, statistic)`` arrays of the marginal tests of
        ``first[k]`` and ``second[k]``.

        The correlations are three gathers from the cached covariance and
        one vectorised normalisation; each element equals
        :meth:`test_index` without conditioning, bit for bit.
        """
        lo = np.minimum(first, second)
        hi = np.maximum(first, second)
        cov = self._stats.covariance()
        corr = normalise_pairs(cov[lo, hi], cov[lo, lo], cov[hi, hi])
        return _fisher_z_arrays(corr, self._data.n_rows, 0)


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
    p_value = float(scipy_stats.chi2.sf(statistic, dof))
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
            return _results(*self.marginal_arrays(*_pair_arrays(pairs)),
                            self._alpha)
        gsquare = [self._use_gsquare(i, j, conditioning) for i, j in pairs]
        if not any(gsquare):
            return self._fisher.test_batch_index(pairs, conditioning)
        fisher = iter(self._fisher.test_batch_index(
            [pair for pair, g in zip(pairs, gsquare) if not g], conditioning))
        return [self._gsquare(i, j, conditioning) if g
                else next(fisher)
                for (i, j), g in zip(pairs, gsquare)]

    def marginal_arrays(self, first: np.ndarray, second: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`FisherZTest.marginal_arrays` with the G-test dispatch.

        Pairs of two discrete columns are checked one by one and, when
        eligible, G-tested in their given orientation; every other pair
        keeps its Fisher z element.
        """
        p_values, statistics = self._fisher.marginal_arrays(first, second)
        flags = self._discrete_flags
        for k in np.flatnonzero(flags[first] & flags[second]).tolist():
            i, j = int(first[k]), int(second[k])
            if self._use_gsquare(i, j, ()):
                result = self._gsquare(i, j, ())
                p_values[k], statistics[k] = result.p_value, result.statistic
        return p_values, statistics


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
    skeleton search and name-based calls (Possible-D-Sep pruning, via
    :meth:`CachedCITest.test`) map onto the same keys and share the entries.

    A lookup at the entry's own epoch is always a hit.  After an epoch bump
    (new rows appended) the *margin policy* decides: a decision whose p-value
    lies outside ``[alpha / margin_factor, alpha * margin_factor]`` is far
    from the significance threshold, is overwhelmingly unlikely to flip from
    a handful of extra samples, and is served stale; a borderline decision is
    evicted so the caller retests it on the fresh data.  This is what makes
    the replayed skeleton search of an incremental update cheap — per
    iteration only the borderline fringe of the previous model is
    re-examined.

    Even a confident decision is only served for ``max_stale_epochs``
    consecutive bumps before it is retested: p-values drift as samples
    accumulate, and an unbounded reuse window would let early-epoch decisions
    diverge arbitrarily from what the data now says.  The forced retests are
    spread across epochs (entries age at different times), so the
    per-iteration cost stays a fraction ``1 / max_stale_epochs`` of a full
    re-learn.

    The entries here are the *conditional* decisions, LRU-evicted beyond
    ``max_entries``.  :class:`CachedCITest` keeps marginal decisions
    (``Z = ∅``) in a dense per-column-pair table instead, bounded by the
    square of the column count and never evicted; it applies this margin
    policy to them with :meth:`lookup_many`, which counts in the same
    :attr:`counters`, and :meth:`clear` invalidates those tables too.
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
        # Bumped by clear(); a marginal table older than this is invalid.
        self._generation = 0
        self.counters = CICacheCounters()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def generation(self) -> int:
        """Number of :meth:`clear` calls so far."""
        return self._generation

    @staticmethod
    def key(i: int, j: int, conditioning: Sequence[int] = ()) -> CIKey:
        """Canonical key of testing columns ``i``, ``j`` given ``conditioning``."""
        z = _conditioning_key(conditioning)
        return (i, j, z) if i < j else (j, i, z)

    def is_confident(self, result: CIResult) -> bool:
        """True when the decision is far enough from alpha to survive epochs."""
        if not math.isfinite(result.statistic):
            # The "not enough samples to decide" sentinel (p=0, statistic
            # inf): never confident — a few more rows may make the test
            # decidable, so it must be re-run every epoch.
            return False
        return (result.p_value >= self._alpha * self._margin_factor
                or result.p_value <= self._alpha / self._margin_factor)

    def confident_mask(self, p_values: np.ndarray,
                       statistics: np.ndarray) -> np.ndarray:
        """:meth:`is_confident` over decision arrays."""
        return np.isfinite(statistics) & (
            (p_values >= self._alpha * self._margin_factor)
            | (p_values <= self._alpha / self._margin_factor))

    def lookup(self, key: CIKey, epoch: int) -> CIResult | None:
        entry = self._entries.get(key)
        if entry is None:
            self.counters.misses += 1
            return None
        stored, result, confident = entry
        if stored == epoch:
            self.counters.hits += 1
            return result
        if confident and 0 < epoch - stored <= self._max_stale_epochs:
            # Survives the epoch bump; deliberately NOT re-stamped, so the
            # decision is recomputed once its reuse window closes.
            self.counters.stale_reused += 1
            return result
        del self._entries[key]
        self.counters.retests += 1
        return None

    def lookup_many(self, keys: np.ndarray, present: np.ndarray,
                    stored: np.ndarray, confident: np.ndarray,
                    epoch: int) -> np.ndarray:
        """:meth:`lookup` over the entries of a dense decision table.

        ``present``, ``stored`` and ``confident`` describe the table entry
        of each of ``keys``: whether it exists, its epoch and its confidence.
        Returns the mask of keys to (re)test.  The counters move as
        sequential :meth:`lookup` calls would move them, evictions included:
        a key repeated in one call is retested once and misses after that.
        """
        age = epoch - stored
        hit = present & (age == 0)
        reused = present & confident & (age > 0) & \
            (age <= self._max_stale_epochs)
        fresh = ~(hit | reused)
        retest = fresh & present
        retests = int(np.unique(keys[retest]).size) if retest.any() else 0
        counters = self.counters
        counters.hits += int(np.count_nonzero(hit))
        counters.stale_reused += int(np.count_nonzero(reused))
        counters.retests += retests
        counters.misses += int(np.count_nonzero(fresh)) - retests
        return fresh

    def store(self, key: CIKey, epoch: int, result: CIResult) -> None:
        self._entries[key] = (epoch, result, self.is_confident(result))
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every decision, the marginal tables' included."""
        self._entries.clear()
        self._generation += 1


class CachedCITest:
    """Wrap an index-space CI test with a :class:`CIDecisionCache`.

    ``inner`` is a :class:`FisherZTest` or :class:`MixedCITest` (anything
    with ``alpha``, ``n_columns``, ``column_index``, ``test_index``,
    ``test_batch_index`` and ``marginal_arrays``, whose decisions are
    ``p_value > alpha``).  ``epoch_fn`` supplies the current data epoch
    (normally the backing dataset's ``data_epoch``); every decision the
    inner test produces is recorded and replayed according to the cache's
    margin policy.

    Conditional decisions live in the cache's dict.  Marginal decisions
    live in a dense table indexed by the column pair ``(lo, hi)``: arrays
    of presence, epoch, p-value, statistic and confidence, about 1.2 MB at
    213 columns.  :meth:`marginal_arrays` replays a whole level-0 sweep
    from it with array operations and hands only the misses to ``inner``;
    ``test_index(i, j, ())`` and ``test_batch_index(pairs, ())`` go through
    the same table.
    """

    def __init__(self, inner, cache: CIDecisionCache,
                 epoch_fn: Callable[[], int]) -> None:
        self._inner = inner
        self._cache = cache
        self._epoch_fn = epoch_fn
        self._n_columns = inner.n_columns
        size = self._n_columns ** 2
        self._present = np.zeros(size, dtype=bool)
        self._epoch = np.zeros(size, dtype=np.int64)
        self._p_value = np.zeros(size)
        self._statistic = np.zeros(size)
        self._confident = np.zeros(size, dtype=bool)
        self._generation = cache.generation

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

    # ---------------------------------------------------------------- testing
    def test(self, x: str, y: str,
             conditioning: Sequence[str] = ()) -> CIResult:
        idx = self._inner.column_index
        return self.test_index(idx(x), idx(y), [idx(c) for c in conditioning])

    def test_index(self, i: int, j: int,
                   conditioning: Sequence[int] = ()) -> CIResult:
        """:meth:`test` on column indices."""
        if not conditioning:
            return self.test_batch_index([(i, j)])[0]
        key = CIDecisionCache.key(i, j, conditioning)
        epoch = self._epoch_fn()
        result = self._cache.lookup(key, epoch)
        if result is None:
            result = self._inner.test_index(i, j, conditioning)
            self._cache.store(key, epoch, result)
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
            return _results(*self.marginal_arrays(*_pair_arrays(pairs)),
                            self.alpha)
        epoch = self._epoch_fn()
        z = _conditioning_key(conditioning)
        lookup = self._cache.lookup
        keys = [(i, j, z) if i < j else (j, i, z) for i, j in pairs]
        results = [lookup(key, epoch) for key in keys]
        missing = [k for k, result in enumerate(results) if result is None]
        if missing:
            fresh = self._inner.test_batch_index(
                [pairs[k] for k in missing], conditioning)
            for k, result in zip(missing, fresh):
                self._cache.store(keys[k], epoch, result)
                results[k] = result
        return results  # type: ignore[return-value]

    def marginal_arrays(self, first: np.ndarray, second: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """``(p_value, statistic)`` arrays of the marginal tests of
        ``first[k]`` and ``second[k]``, replayed from the table.

        The margin policy runs as one :meth:`CIDecisionCache.lookup_many`
        mask; the keys it rejects go to ``inner.marginal_arrays`` in one
        call and are stored back, the last result of a repeated pair
        winning, as sequential stores would have it.
        """
        if self._generation != self._cache.generation:
            self._present[:] = False
            self._generation = self._cache.generation
        epoch = self._epoch_fn()
        keys = (np.minimum(first, second) * self._n_columns
                + np.maximum(first, second))
        p_values = self._p_value[keys]
        statistics = self._statistic[keys]
        fresh = self._cache.lookup_many(
            keys, self._present[keys], self._epoch[keys],
            self._confident[keys], epoch)
        if fresh.any():
            new_p, new_statistic = self._inner.marginal_arrays(
                first[fresh], second[fresh])
            p_values[fresh] = new_p
            statistics[fresh] = new_statistic
            keys = keys[fresh]
            last = len(keys) - 1 - np.unique(keys[::-1], return_index=True)[1]
            keys, new_p, new_statistic = \
                keys[last], new_p[last], new_statistic[last]
            self._present[keys] = True
            self._epoch[keys] = epoch
            self._p_value[keys] = new_p
            self._statistic[keys] = new_statistic
            self._confident[keys] = self._cache.confident_mask(
                new_p, new_statistic)
        return p_values, statistics
