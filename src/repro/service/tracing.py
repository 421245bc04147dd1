"""Per-request tracing for the serving tier.

A :class:`TraceContext` rides alongside each
:class:`~repro.service.requests.QueryRequest` from admission to
response: which tenant and subject it belongs to, which shard answered
it, how long it waited in the queue versus the batch window versus the
engine, whether the result came from cache, how many requests shared its
coalesced engine call, and how many protocol bytes carried it.  The
segments mirror the stages a request actually passes through
(``QueryService`` admission → drain → ``RequestBatcher`` dispatch →
optionally a shard worker → optionally the gateway's wire framing).

Design rules:

* **Zero overhead when disabled.**  :meth:`Tracer.open` returns
  ``None`` when tracing is off — no allocation, no dict update, nothing
  on the hot path.  Every call site guards with ``if trace is not
  None``.  The :attr:`Tracer.contexts_created` counter exists precisely
  so tests can assert this: with tracing disabled it must stay zero
  through an entire workload.
* **Deterministic records.**  Request ids are derived from the workload
  seed tree (subject, kind, item key, occurrence index), not from
  wall-clock or object identity, so the same seeded workload replayed
  twice produces the same ids in the same order.
  :meth:`TraceRecorder.render` can strip wall-clock duration fields,
  leaving a byte-stable JSONL artifact keyed by the root seed.
* **Contexts ride on the request.**  Admission opens one context per
  request (:meth:`Tracer.open`) and stores it on the admitted request;
  every tier stamps that object directly, and the settlement step hands
  the round's contexts back (:meth:`Tracer.retire`) before any future
  resolves.  A refused submission is retired at once with its
  exception name in ``error``.
* **No signature churn.**  The gateway attaches wire-level facts
  (tenant, frame bytes) via :meth:`Tracer.annotate` *before* submitting,
  keyed by request identity; ``open()`` pops them into the new context.
  ``QueryService.submit*`` signatures stay unchanged.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.service.requests import QueryRequest

#: Trace fields holding wall-clock durations — stripped by
#: :meth:`TraceRecorder.render` when a byte-stable artifact is wanted.
WALL_CLOCK_FIELDS = (
    "queue_wait_seconds",
    "batch_wait_seconds",
    "engine_seconds",
    "cache_seconds",
    "total_seconds",
)


@dataclass
class TraceContext:
    """Everything observed about one request's trip through the service.

    Mutable on purpose: each tier fills in the fields it owns
    (``QueryService`` the queue wait, ``RequestBatcher`` the engine and
    cache segments, ``ShardedQueryService`` the shard index, the gateway
    the tenant and frame bytes).  :meth:`as_record` renders the finished
    context as a JSON-safe dict with stable key order.

    The request id is stored as its parts (``item_key`` tuple plus an
    occurrence index) and rendered on demand: formatting a nested tuple
    into a string costs microseconds, which belongs on the cold render
    path, not in :meth:`Tracer.open` on the serving hot path.
    """

    __slots__ = (
        "tenant", "subject", "kind", "item_key", "occurrence", "shard",
        "queue_wait_seconds", "batch_wait_seconds", "engine_seconds",
        "cache_seconds", "total_seconds", "coalesce_group_size",
        "cache_hit", "batched", "frame_bytes", "error",
    )

    tenant: str
    subject: str
    kind: str
    item_key: tuple
    occurrence: int
    shard: int
    queue_wait_seconds: float
    batch_wait_seconds: float
    engine_seconds: float
    cache_seconds: float
    total_seconds: float
    coalesce_group_size: int
    cache_hit: bool
    batched: bool
    frame_bytes: int
    error: str

    @property
    def request_id(self) -> str:
        """Deterministic id: subject / kind / item key / occurrence."""
        return (f"{self.subject}/{self.kind}/{self.item_key}"
                f"#{self.occurrence}")

    def as_record(self) -> dict:
        """JSON-safe dict with deterministic key order."""
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "subject": self.subject,
            "kind": self.kind,
            "shard": self.shard,
            "queue_wait_seconds": self.queue_wait_seconds,
            "batch_wait_seconds": self.batch_wait_seconds,
            "engine_seconds": self.engine_seconds,
            "cache_seconds": self.cache_seconds,
            "total_seconds": self.total_seconds,
            "coalesce_group_size": self.coalesce_group_size,
            "cache_hit": self.cache_hit,
            "batched": self.batched,
            "frame_bytes": self.frame_bytes,
            "error": self.error,
        }


def _blank_context(subject: str, kind: str, item_key: tuple,
                   occurrence: int) -> TraceContext:
    """A fresh context with every segment zeroed.

    Positional construction, in ``__slots__`` order — keyword binding
    of 16 fields costs ~1 µs/context, which at serving rates is the
    difference between tracing being free and being measurable.
    """
    return TraceContext(
        "", subject, kind, item_key, occurrence, -1,  # tenant..shard
        0.0, 0.0, 0.0, 0.0, 0.0,  # queue/batch/engine/cache/total secs
        0, False, False, 0, "")  # group size, flags, frame bytes, error


class Tracer:
    """Opens, annotates and collects :class:`TraceContext` objects.

    One tracer is shared by every tier of one serving stack.  When
    ``enabled`` is False (the default), :meth:`open` returns ``None``
    without allocating and :meth:`annotate` is a no-op — call sites
    guard all trace work behind ``if trace is not None``, so a disabled
    tracer adds only that ``None`` check to the hot path.

    The tracer keeps no table of live contexts: each admitted request
    carries its own (``_Pending.trace`` in the serving core) from
    :meth:`open` to :meth:`retire`.

    ``contexts_created`` counts every context ever built; the
    zero-overhead-when-disabled test drives a full workload with tracing
    off and asserts the counter stayed at zero.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self.contexts_created = 0
        self._lock = threading.Lock()
        #: wire-level facts posted by :meth:`annotate`, keyed by request
        #: identity, until the request's next :meth:`open` folds them in.
        self._annotations: dict[int, dict] = {}
        self._finished: list[TraceContext] = []
        self._occurrences: dict[tuple, int] = {}

    # -- hot-path API -------------------------------------------------

    def open(self, requests: Sequence[QueryRequest],
             ) -> "list[TraceContext] | None":
        """One new context per request, aligned with ``requests``.

        ``None`` when disabled.  The request id is derived
        deterministically from the request's identity — ``(subject,
        kind, item_key)`` plus an occurrence index counted in open order
        — never from wall-clock or memory addresses, so seeded replays
        yield identical ids.  Annotations the gateway posted for a
        request are popped and folded into its context.  The contexts
        are built outside the tracer lock; one lock pass numbers them.
        """
        if not self.enabled:
            return None
        traces = []
        for request in requests:
            item_key = request.item_key_cached()
            # Every request kind leads its item key with ``kind.value``.
            traces.append(_blank_context(request.subject, item_key[0],
                                         item_key, 0))
        with self._lock:
            occurrences = self._occurrences
            annotations = self._annotations
            for request, trace in zip(requests, traces):
                identity = (trace.subject, trace.item_key)
                occurrence = occurrences.get(identity, 0)
                occurrences[identity] = occurrence + 1
                trace.occurrence = occurrence
                if annotations:
                    pending = annotations.pop(id(request), None)
                    if pending is not None:
                        trace.tenant = pending.get("tenant", "")
                        trace.frame_bytes = pending.get("frame_bytes", 0)
            self.contexts_created += len(traces)
        return traces

    def annotate(self, request: QueryRequest, *, tenant: str | None = None,
                 frame_bytes: int | None = None) -> None:
        """Post wire-level facts for ``request``'s next :meth:`open`.

        Lets the gateway record tenant and frame size without changing
        any ``submit`` signature: the service opens the request's
        context before routing or admission, so every submission —
        refused ones included — consumes what was posted for it.
        Frame bytes posted twice add up.  No-op when disabled.
        """
        if not self.enabled:
            return
        with self._lock:
            slot = self._annotations.setdefault(id(request), {})
            if tenant is not None:
                slot["tenant"] = tenant
            if frame_bytes is not None:
                slot["frame_bytes"] = slot.get("frame_bytes",
                                               0) + frame_bytes

    def retire(self, traces: Iterable[TraceContext]) -> None:
        """Append settled contexts to the finished log, in order."""
        with self._lock:
            self._finished.extend(traces)

    # -- cold-path API ------------------------------------------------

    def finished(self) -> list[TraceContext]:
        """Finished contexts in completion order (a copy)."""
        with self._lock:
            return list(self._finished)

    def drain(self) -> list[TraceContext]:
        """Remove and return all finished contexts."""
        with self._lock:
            out = self._finished
            self._finished = []
            return out

    def reset(self) -> None:
        """Forget pending annotations, finished contexts and occurrence
        counts."""
        with self._lock:
            self._annotations.clear()
            self._finished.clear()
            self._occurrences.clear()


class TraceRecorder:
    """Renders finished traces as deterministic JSONL artifacts.

    A trace file is keyed by the workload's root seed: the header line
    records the seed and record count, then one JSON object per request
    with sorted keys.  With ``include_wall_clock=False`` (the default
    for committed artifacts) the duration fields in
    :data:`WALL_CLOCK_FIELDS` are dropped, so two replays of the same
    seeded workload through the deterministic dispatch path produce
    byte-identical files.
    """

    def __init__(self, root_seed: int) -> None:
        self.root_seed = int(root_seed)

    def render(self, traces: Iterable[TraceContext | Mapping], *,
               include_wall_clock: bool = False) -> str:
        """The JSONL text for ``traces`` (header line + one per trace)."""
        records = []
        for trace in traces:
            record = (dict(trace) if isinstance(trace, Mapping)
                      else trace.as_record())
            if not include_wall_clock:
                for clock_field in WALL_CLOCK_FIELDS:
                    record.pop(clock_field, None)
            records.append(record)
        lines = [json.dumps({"root_seed": self.root_seed,
                             "records": len(records)}, sort_keys=True)]
        lines.extend(json.dumps(record, sort_keys=True)
                     for record in records)
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path,
              traces: Iterable[TraceContext | Mapping], *,
              include_wall_clock: bool = False) -> Path:
        """Write :meth:`render` output to ``path`` and return it."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            self.render(traces, include_wall_clock=include_wall_clock),
            encoding="utf-8")
        return target

    @staticmethod
    def load(path: str | Path) -> tuple[dict, list[dict]]:
        """Read a trace file back as ``(header, records)``."""
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines:
            raise ValueError(f"empty trace file: {path}")
        header = json.loads(lines[0])
        return header, [json.loads(line) for line in lines[1:] if line]


def trace_summary(traces: Sequence[TraceContext]) -> dict:
    """Aggregate a batch of finished traces into headline numbers.

    Returns request count, cache-hit rate, mean coalesce group size and
    the share of requests that rode a batched engine call — the quick
    glance the observability docs walk through.
    """
    if not traces:
        return {"requests": 0, "cache_hit_rate": 0.0,
                "mean_coalesce_group": 0.0, "batched_share": 0.0}
    n = len(traces)
    hits = sum(1 for t in traces if t.cache_hit)
    grouped = [t.coalesce_group_size for t in traces
               if t.coalesce_group_size > 0]
    batched = sum(1 for t in traces if t.batched)
    return {
        "requests": n,
        "cache_hit_rate": hits / n,
        "mean_coalesce_group": (sum(grouped) / len(grouped)
                                if grouped else 0.0),
        "batched_share": batched / n,
    }
