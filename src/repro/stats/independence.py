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
from repro.stats.sufficient import SufficientStats


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

    def test(self, x: str, y: str,
             conditioning: Sequence[str] = ()) -> CIResult:
        idx = self._data.column_index
        corr = self._stats.partial_correlation(
            idx(x), idx(y), [idx(c) for c in conditioning])
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
        involved = sorted({idx(v) for x, y in pairs for v in (x, y)})
        position = {column: k for k, column in enumerate(involved)}
        matrix = self._stats.partial_correlations(
            involved, [idx(c) for c in conditioning])
        n, k = self._data.n_rows, len(conditioning)
        return [
            _fisher_z_from_correlation(
                float(matrix[position[idx(x)], position[idx(y)]]), n, k,
                self._alpha)
            for x, y in pairs
        ]


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

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def sufficient_stats(self) -> SufficientStats:
        return self._stats

    def _use_gsquare(self, x: str, y: str,
                     conditioning: Sequence[str]) -> bool:
        involved = [x, y, *conditioning]
        if not all(self._data.is_discrete(c) for c in involved):
            return False
        cells = 1
        for column in involved:
            cells *= self._stats.cardinality(column)
        return cells <= max(self._max_cells_fraction * self._data.n_rows, 8)

    def test(self, x: str, y: str,
             conditioning: Sequence[str] = ()) -> CIResult:
        if self._use_gsquare(x, y, conditioning):
            return self._gsq.test(x, y, conditioning)
        return self._fisher.test(x, y, conditioning)

    def test_batch(self, pairs: Sequence[tuple[str, str]],
                   conditioning: Sequence[str] = ()) -> list[CIResult]:
        """Batch variant of :meth:`test` for one shared conditioning set."""
        fisher_pairs = [(i, pair) for i, pair in enumerate(pairs)
                        if not self._use_gsquare(*pair, conditioning)]
        results: list[CIResult | None] = [None] * len(pairs)
        if fisher_pairs:
            batch = self._fisher.test_batch([p for _, p in fisher_pairs],
                                            conditioning)
            for (i, _), result in zip(fisher_pairs, batch):
                results[i] = result
        for i, (x, y) in enumerate(pairs):
            if results[i] is None:
                results[i] = self._gsq.test(x, y, conditioning)
        return results  # type: ignore[return-value]


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


@dataclass
class _CacheEntry:
    epoch: int
    result: CIResult


class CIDecisionCache:
    """Cache of CI decisions keyed by ``(x, y, frozenset(Z))`` and data epoch.

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
        self._entries: OrderedDict[tuple[str, str, frozenset[str]],
                                   _CacheEntry] = OrderedDict()
        self.counters = CICacheCounters()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def alpha(self) -> float:
        return self._alpha

    @staticmethod
    def _key(x: str, y: str,
             conditioning: Sequence[str]) -> tuple[str, str, frozenset[str]]:
        a, b = (x, y) if x <= y else (y, x)
        return (a, b, frozenset(conditioning))

    def is_confident(self, result: CIResult) -> bool:
        """True when the decision is far enough from alpha to survive epochs."""
        if not math.isfinite(result.statistic):
            # The "not enough samples to decide" sentinel (p=0, statistic
            # inf): never confident — a few more rows may make the test
            # decidable, so it must be re-run every epoch.
            return False
        return (result.p_value >= self._alpha * self._margin_factor
                or result.p_value <= self._alpha / self._margin_factor)

    def lookup(self, x: str, y: str, conditioning: Sequence[str],
               epoch: int) -> CIResult | None:
        key = self._key(x, y, conditioning)
        entry = self._entries.get(key)
        if entry is None:
            self.counters.misses += 1
            return None
        if entry.epoch == epoch:
            self.counters.hits += 1
            return entry.result
        if (self.is_confident(entry.result)
                and 0 < epoch - entry.epoch <= self._max_stale_epochs):
            # Survives the epoch bump; deliberately NOT re-stamped, so the
            # decision is recomputed once its reuse window closes.
            self.counters.stale_reused += 1
            return entry.result
        del self._entries[key]
        self.counters.retests += 1
        return None

    def store(self, x: str, y: str, conditioning: Sequence[str],
              epoch: int, result: CIResult) -> None:
        key = self._key(x, y, conditioning)
        self._entries[key] = _CacheEntry(epoch=epoch, result=result)
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


class CachedCITest:
    """Wrap any :class:`CITest` with a :class:`CIDecisionCache`.

    ``epoch_fn`` supplies the current data epoch (normally the backing
    dataset's ``data_epoch``); every decision the inner test produces is
    recorded and replayed according to the cache's margin policy.
    """

    def __init__(self, inner, cache: CIDecisionCache,
                 epoch_fn: Callable[[], int]) -> None:
        self._inner = inner
        self._cache = cache
        self._epoch_fn = epoch_fn

    @property
    def alpha(self) -> float:
        return self._inner.alpha

    @property
    def cache(self) -> CIDecisionCache:
        return self._cache

    @property
    def inner(self):
        return self._inner

    # ---------------------------------------------------------------- testing
    def test(self, x: str, y: str,
             conditioning: Sequence[str] = ()) -> CIResult:
        epoch = self._epoch_fn()
        result = self._cache.lookup(x, y, conditioning, epoch)
        if result is None:
            result = self._inner.test(x, y, conditioning)
            self._cache.store(x, y, conditioning, epoch, result)
        return result

    def test_batch(self, pairs: Sequence[tuple[str, str]],
                   conditioning: Sequence[str] = ()) -> list[CIResult]:
        epoch = self._epoch_fn()
        results: list[CIResult | None] = []
        missing: list[tuple[int, tuple[str, str]]] = []
        for i, (x, y) in enumerate(pairs):
            cached = self._cache.lookup(x, y, conditioning, epoch)
            results.append(cached)
            if cached is None:
                missing.append((i, (x, y)))
        if missing:
            inner_batch = getattr(self._inner, "test_batch", None)
            if inner_batch is not None:
                fresh = inner_batch([p for _, p in missing], conditioning)
            else:
                fresh = [self._inner.test(x, y, conditioning)
                         for _, (x, y) in missing]
            for (i, (x, y)), result in zip(missing, fresh):
                self._cache.store(x, y, conditioning, epoch, result)
                results[i] = result
        return results  # type: ignore[return-value]
