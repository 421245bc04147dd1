"""Lock-cheap serving metrics: reservoirs, histograms, snapshots.

The serving tier's counters (:class:`~repro.service.service.ServiceStats`
— the lifecycle counters both tiers share — extended by
:class:`~repro.service.service.QueryServiceStats` and
:class:`~repro.service.sharding.ShardedServiceStats`) answer *how much*
work happened; this module answers *how it felt*: latency percentiles
from a streaming reservoir, the batch-size distribution the coalescer
actually achieved, queue depth and in-flight gauges, refresh cadence.
Both tiers feed one :class:`ServiceMetrics` from the one settlement step
of :class:`~repro.service.service.ServingCore`, once per round of
responses.  Everything here is designed for the hot path:

* :class:`LatencyReservoir` — a fixed-capacity ring of the most recent
  samples.  Recording is one lock acquisition, one float store and one
  integer increment; percentile computation (the cold read path) sorts
  a copy.  A ring (rather than Vitter's algorithm R) keeps recording
  deterministic — no random number draw per sample — so two identical
  serial replays produce identical snapshots.
* :class:`BatchSizeHistogram` — power-of-two buckets over observed
  dispatch batch sizes; one ``bit_length`` and one list increment per
  dispatch round (not per request).
* :class:`MetricsSnapshot` — the immutable, JSON-safe point-in-time
  view ``metrics_snapshot()`` returns and the gateway's ``metrics``
  wire verb serves.

:meth:`~repro.service.service.ServingCore.metrics_snapshot` (one
definition for both tiers) builds the snapshot from one consistent
:meth:`~repro.service.service.ServingCore.stats_snapshot`, so its
cross-counter sums obey the same invariants (``answered <= submitted``,
never a torn mid-burst view) and ``in_flight`` is that snapshot's
admitted-but-unsettled count.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Mapping, Sequence

#: Default reservoir capacity: large enough that p99 over a benchmark
#: round is computed from real samples, small enough that the ring and
#: its sorted copy stay cache-friendly.
DEFAULT_RESERVOIR_CAPACITY = 2048


class LatencyReservoir:
    """Streaming reservoir of latency samples (seconds), ring-buffered.

    Keeps the most recent ``capacity`` samples.  Recording is O(1) and
    lock-cheap; :meth:`percentiles` sorts a copy (the cold path).  The
    ring is deterministic: identical sample streams produce identical
    reservoir contents, which the trace-determinism tests rely on.

    Parameters
    ----------
    capacity:
        Maximum samples retained; older samples are overwritten.
    """

    def __init__(self, capacity: int = DEFAULT_RESERVOIR_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self.capacity = int(capacity)
        self._ring: list[float] = [0.0] * self.capacity
        self._count = 0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        """Add one latency sample (hot path: one lock, two stores)."""
        with self._lock:
            self._ring[self._count % self.capacity] = float(seconds)
            self._count += 1

    def record_many(self, samples: Sequence[float]) -> None:
        """Add a batch of samples under one lock acquisition."""
        with self._lock:
            count = self._count
            for sample in samples:
                self._ring[count % self.capacity] = float(sample)
                count += 1
            self._count = count

    @property
    def count(self) -> int:
        """Total samples ever recorded (retained or overwritten)."""
        with self._lock:
            return self._count

    def samples(self) -> list[float]:
        """The retained samples, oldest first (a copy)."""
        with self._lock:
            count = self._count
            if count <= self.capacity:
                return self._ring[:count]
            start = count % self.capacity
            return self._ring[start:] + self._ring[:start]

    def percentiles(self, ranks: Sequence[float] = (50.0, 95.0, 99.0)
                    ) -> dict[str, float]:
        """``{"p50": ..., ...}`` in **milliseconds** over retained samples.

        Empty reservoirs report zeros.  Uses nearest-rank on the sorted
        retained window — deterministic and dependency-free.
        """
        retained = sorted(self.samples())
        if not retained:
            return {f"p{rank:g}": 0.0 for rank in ranks}
        out = {}
        for rank in ranks:
            position = max(
                0, min(len(retained) - 1,
                       int(round(rank / 100.0 * (len(retained) - 1)))))
            out[f"p{rank:g}"] = retained[position] * 1000.0
        return out


class BatchSizeHistogram:
    """Power-of-two histogram of dispatch batch sizes.

    Bucket ``i`` counts batches of size in ``[2**i, 2**(i+1))`` (bucket 0
    is size 1).  Recording is one ``bit_length`` call and one increment
    per *dispatch round*, not per request — effectively free.
    """

    def __init__(self, n_buckets: int = 12) -> None:
        if n_buckets < 1:
            raise ValueError("histogram needs at least one bucket")
        self._counts = [0] * int(n_buckets)
        self._lock = threading.Lock()

    def record(self, batch_size: int) -> None:
        """Count one dispatch batch of ``batch_size`` requests."""
        if batch_size < 1:
            return
        bucket = min(int(batch_size).bit_length() - 1,
                     len(self._counts) - 1)
        with self._lock:
            self._counts[bucket] += 1

    def as_dict(self) -> dict[str, int]:
        """``{"1": ..., "2-3": ..., "4-7": ...}`` label → count (non-zero
        buckets only, stable label order)."""
        with self._lock:
            counts = list(self._counts)
        out: dict[str, int] = {}
        for bucket, count in enumerate(counts):
            if not count:
                continue
            lo = 1 << bucket
            hi = (1 << (bucket + 1)) - 1
            label = str(lo) if lo == hi else f"{lo}-{hi}"
            if bucket == len(counts) - 1:
                label = f"{lo}+"
            out[label] = count
        return out

    def total(self) -> int:
        """Total batches recorded across all buckets."""
        with self._lock:
            return sum(self._counts)


@dataclass(frozen=True)
class MetricsSnapshot:
    """One immutable, JSON-safe point-in-time view of a serving tier.

    Assembled by ``ServingCore.metrics_snapshot()`` (both tiers) from
    one consistent stats snapshot, and served over the wire by the
    gateway's ``metrics`` verb.  All fields are plain numbers or dicts
    of numbers, so ``as_dict()`` round-trips through JSON exactly.
    """

    #: requests queued but not yet drained.
    queue_depth: int
    #: requests admitted but not yet settled (queued + being answered).
    in_flight: int
    submitted: int
    answered: int
    #: requests answered per engine call (the coalescing win).
    coalescing_ratio: float
    cache_hits: int
    cache_misses: int
    #: model refreshes performed (the drift-aware refresh cadence).
    refreshes: int
    #: dispatch batch-size distribution, power-of-two buckets.
    batch_histogram: dict[str, int] = field(default_factory=dict)
    #: latency percentiles in milliseconds from the streaming reservoir.
    latency_ms: dict[str, float] = field(default_factory=dict)
    #: latency samples the reservoir has seen in total.
    latency_samples: int = 0

    def as_dict(self) -> dict:
        """JSON-safe rendering (what the ``metrics`` wire op returns)."""
        return {
            "queue_depth": int(self.queue_depth),
            "in_flight": int(self.in_flight),
            "submitted": int(self.submitted),
            "answered": int(self.answered),
            "coalescing_ratio": float(self.coalescing_ratio),
            "cache_hits": int(self.cache_hits),
            "cache_misses": int(self.cache_misses),
            "refreshes": int(self.refreshes),
            "batch_histogram": dict(self.batch_histogram),
            "latency_ms": dict(self.latency_ms),
            "latency_samples": int(self.latency_samples),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "MetricsSnapshot":
        """Rebuild a snapshot from its :meth:`as_dict` rendering."""
        return cls(
            queue_depth=int(payload.get("queue_depth", 0)),
            in_flight=int(payload.get("in_flight", 0)),
            submitted=int(payload.get("submitted", 0)),
            answered=int(payload.get("answered", 0)),
            coalescing_ratio=float(payload.get("coalescing_ratio", 0.0)),
            cache_hits=int(payload.get("cache_hits", 0)),
            cache_misses=int(payload.get("cache_misses", 0)),
            refreshes=int(payload.get("refreshes", 0)),
            batch_histogram={str(k): int(v) for k, v in
                             dict(payload.get("batch_histogram",
                                              {})).items()},
            latency_ms={str(k): float(v) for k, v in
                        dict(payload.get("latency_ms", {})).items()},
            latency_samples=int(payload.get("latency_samples", 0)))


class ServiceMetrics:
    """The always-on metrics instruments a serving tier owns.

    One :class:`LatencyReservoir` plus one :class:`BatchSizeHistogram`;
    both are lock-cheap enough to stay enabled unconditionally (the
    tracing layer, which allocates per request, is the part that can be
    switched off).  The owning service combines these with its counter
    snapshot into a :class:`MetricsSnapshot`.
    """

    def __init__(self, reservoir_capacity: int = DEFAULT_RESERVOIR_CAPACITY
                 ) -> None:
        self.latency = LatencyReservoir(reservoir_capacity)
        self.batch_sizes = BatchSizeHistogram()

    def observe_dispatch(self, batch_size: int,
                         latencies: Sequence[float]) -> None:
        """Record one dispatch round: its batch size and latencies."""
        self.batch_sizes.record(batch_size)
        self.latency.record_many(latencies)
