"""The thread-safe query-serving facade and the lifecycle both tiers share.

:class:`ServingCore` is the request lifecycle every serving tier runs:
admission, ``submit`` / ``submit_async`` / ``submit_many``, settlement,
close-time settlement and the stats / metrics snapshots.  A tier only
decides how an admitted request reaches an answer:

    submit() ──admission──▶ tier: route + enqueue ──▶ … ──▶ responses
                                                             │ _settle()
    client ◀──────────────── future.result() ◀───────────────┘

:class:`QueryService` is the single-process tier: a
``submit`` / ``submit_many`` surface over the
:class:`~repro.service.registry.ModelRegistry` and
:class:`~repro.service.batcher.RequestBatcher`.  Client threads enqueue
requests and block on futures; a dispatcher thread drains the queue in
small timed windows, groups what arrived together, and answers each group
with one batched engine call.  The sharded tier
(:class:`~repro.service.sharding.ShardedQueryService`) runs the same
lifecycle over worker replicas.

Policies enforced by the shared core:

* **Admission control** — at most ``max_pending`` requests may be admitted
  and not yet settled; beyond that :meth:`ServingCore.submit` raises
  :class:`AdmissionError` immediately (backpressure the caller can see)
  instead of growing an unbounded queue.  ``submit_many`` is atomic.
* **One settlement step** — every request is counted as exactly one of
  ``answered`` / ``errors`` / ``cancelled`` / ``closed_errors`` before its
  future resolves, so at quiescence those four sum to ``submitted``.

Policies of the single-process tier:

* **Per-subject fairness** — the drain loop round-robins across subjects,
  taking at most ``fairness_quantum`` requests from each per turn, so one
  hot subject cannot starve the others no matter how deep its backlog.
* **Version isolation** — a drained group is answered under its registry
  entry's lock at one model version; a concurrent
  :meth:`~repro.service.registry.ModelRegistry.observe` refresh either
  happens before the group (all answers carry the new version) or after
  (all the old) — never in between.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.service.batcher import RequestBatcher
from repro.service.metrics import MetricsSnapshot, ServiceMetrics
from repro.service.registry import ModelRegistry
from repro.service.requests import QueryRequest, QueryResponse
from repro.service.tracing import TraceContext, Tracer


class ServiceClosedError(RuntimeError):
    """Raised when submitting to a service that has been closed."""


class AdmissionError(RuntimeError):
    """Raised when the bounded in-flight budget rejects a submission."""


@dataclass
class ServiceStats:
    """Lifecycle counters both serving tiers share.

    Every admitted request is counted once in ``submitted`` and, when it
    settles, once in exactly one of ``answered`` (a response from the
    engine, ``response.error`` included), ``errors`` (an error response
    the tier built itself because no engine answer exists), ``cancelled``
    (the client cancelled the future first) or ``closed_errors`` (resolved
    with :class:`ServiceClosedError`).  ``rejected`` counts submissions
    admission refused; they never enter ``submitted``.
    """

    submitted: int = 0
    answered: int = 0
    errors: int = 0
    cancelled: int = 0
    closed_errors: int = 0
    rejected: int = 0

    @property
    def unsettled(self) -> int:
        """Requests admitted but not yet settled (what ``max_pending``
        bounds)."""
        return (self.submitted - self.answered - self.errors
                - self.cancelled - self.closed_errors)


@dataclass
class QueryServiceStats(ServiceStats):
    """:class:`ServiceStats` plus the single-process tier's counters.

    ``coalesced_ratio`` is requests answered per engine call — the
    serving-layer speedup lever (1.0 means no coalescing happened).
    ``cache_hits`` / ``cache_misses`` count distinct item keys served
    from (or stored into) the per-entry cross-request
    :class:`~repro.service.result_cache.ResultCache`; a hit answers
    without any engine call at all.
    """

    dispatches: int = 0
    engine_calls: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    max_batch_observed: int = 0
    per_subject: dict = field(default_factory=dict)

    @property
    def coalesced_ratio(self) -> float:
        """Requests answered per engine call (>= 1.0 once work happened)."""
        return self.answered / max(self.engine_calls, 1)


@dataclass
class _Pending:
    """An admitted request with its future and enqueue timestamp."""

    request: QueryRequest
    future: Future
    enqueued_at: float


class ServingCore:
    """The request lifecycle shared by every serving tier.

    Owns admission, the submit surface, the settlement step, close and
    the snapshots.  A tier supplies four hooks: ``_route`` (validate a
    request, pick where it goes), ``_enqueue`` (hand admitted requests
    over; runs under the core lock, so nothing admitted can slip behind
    :meth:`close`), ``_stop`` (stop serving and return what was never
    answered) and ``_gauges`` (its queue depth, coalescing, cache and
    refresh figures).  The tier answers through :meth:`_settle`.

    One lock, ``self._lock``, guards the closed flag, admission and every
    ``self.stats`` mutation; the single-process tier's queues share it.
    """

    def __init__(self, stats: ServiceStats, max_pending: int,
                 tracer: Tracer | None) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_pending = int(max_pending)
        self.stats = stats
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.metrics = ServiceMetrics()
        # RLock-backed (the default): notify/wait check ownership natively
        # instead of by a trial acquire of a plain Lock.
        self._lock = threading.Condition()
        self._closed = False

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Start serving (idempotent; tiers that start in their
        constructor need nothing more)."""

    def close(self, timeout: float | None = 30.0) -> None:
        """Drain admitted work, stop serving, settle every future.

        New submissions raise :class:`ServiceClosedError` at once.
        Requests already admitted are still answered if the tier can
        finish them within ``timeout``; whatever it cannot — it never
        started, a worker died, the timeout expired — resolves with a
        deterministic :class:`ServiceClosedError`, so a client blocked in
        ``future.result()`` always gets a definite outcome.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._lock.notify_all()
        self._settle_closed(self._stop(timeout))

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ submission
    def submit_async(self, request: QueryRequest) -> Future:
        """Admit one request and return its :class:`Future`.

        The future resolves to a :class:`QueryResponse` (engine failures
        surface in ``response.error``, not as future exceptions), or
        raises :class:`ServiceClosedError` if the service closes before
        the request could be answered.

        Raises
        ------
        AdmissionError
            If ``max_pending`` requests are already admitted and
            unsettled — the backpressure signal; retry after backing off
            or after outstanding futures resolve.
        ServiceClosedError
            If the service has been closed.
        UnknownSubjectError
            If the request names a subject the service does not serve.
        """
        return self._admit([request])[0]

    def submit(self, request: QueryRequest,
               timeout: float | None = None) -> QueryResponse:
        """Admit one request and block until its response arrives.

        Parameters
        ----------
        request:
            Any :mod:`repro.service.requests` request.
        timeout:
            Seconds to wait for the answer (``None`` waits indefinitely).

        Returns
        -------
        QueryResponse

        Raises
        ------
        AdmissionError
            If admission rejected the submission (see :meth:`submit_async`).
        concurrent.futures.TimeoutError
            If the answer did not arrive within ``timeout``.
        """
        return self.submit_async(request).result(timeout=timeout)

    def submit_many(self, requests: Sequence[QueryRequest],
                    timeout: float | None = None) -> list[QueryResponse]:
        """Admit a list of requests and wait for all their responses.

        The list is admitted atomically (all requests or none), so a
        client's coherent batch cannot be half-rejected; ``timeout``
        bounds the whole call, not each answer.

        Raises
        ------
        AdmissionError
            If the whole list does not fit in the in-flight budget.
        """
        deadline = (None if timeout is None
                    else time.monotonic() + float(timeout))
        return [future.result(
                    timeout=None if deadline is None
                    else max(deadline - time.monotonic(), 0.0))
                for future in self._admit(list(requests))]

    def _admit(self, requests: list[QueryRequest]) -> list[Future]:
        """Admit ``requests`` all-or-nothing and hand them to the tier."""
        routes = [self._route(request) for request in requests]
        now = time.perf_counter()
        pendings = [_Pending(request, Future(), now) for request in requests]
        try:
            with self._lock:
                if self._closed:
                    raise ServiceClosedError("service is closed")
                stats = self.stats
                if stats.unsettled + len(pendings) > self.max_pending:
                    stats.rejected += len(pendings)
                    raise AdmissionError(
                        f"in-flight budget cannot admit {len(pendings)} "
                        f"more requests ({stats.unsettled}/"
                        f"{self.max_pending} used); back off and retry")
                stats.submitted += len(pendings)
                # One bulk begin: the contexts exist (as deferred debt)
                # before the tier can possibly see the requests.
                self.tracer.begin_many(requests)
                self._enqueue(pendings, routes)
        except (AdmissionError, ServiceClosedError) as exc:
            if self.tracer.enabled:
                for request in requests:
                    trace = self.tracer.begin(request)
                    trace.error = type(exc).__name__
                    self.tracer.finish(request, trace)
            raise
        return [pending.future for pending in pendings]

    @property
    def n_pending(self) -> int:
        """Requests admitted but not yet settled."""
        with self._lock:
            return self.stats.unsettled

    # ------------------------------------------------------------ settlement
    def _settle(self, pendings: Sequence[_Pending],
                responses: Sequence[QueryResponse] | None = None, *,
                synthesized: bool = False,
                closed: str = "service closed before the request was "
                              "dispatched",
                traces: "list[TraceContext | None] | None" = None,
                tally: Callable[[ServiceStats, int], None] | None = None,
                ) -> None:
        """Resolve one round of requests, each exactly once.

        ``responses`` (aligned with ``pendings``) settle as ``answered``,
        or as ``errors`` when ``synthesized`` marks error responses the
        tier built itself; ``responses=None`` fails the round with
        :class:`ServiceClosedError` (message ``closed``), counted as
        ``closed_errors``.  A future its client cancelled counts as
        ``cancelled`` whatever the round's outcome.  Latency and traces
        are stamped first, then one stats-lock pass counts the round and
        runs the tier's ``tally(stats, n_answered)`` for answered rounds,
        and only then do the futures resolve — a client whose future
        completed never reads a snapshot that has not counted it.
        ``traces`` are the round's claimed contexts (claimed here when
        omitted).
        """
        if traces is None and self.tracer.enabled:
            traces = self.tracer.claim_round([p.request for p in pendings])
        live = [p.future.set_running_or_notify_cancel() for p in pendings]
        if responses is not None:
            now = time.perf_counter()
            latencies = []
            for pending, response in zip(pendings, responses):
                response.latency_seconds = now - pending.enqueued_at
                latencies.append(response.latency_seconds)
            self.metrics.observe_dispatch(len(pendings), latencies)
        if traces is not None:
            for i, trace in enumerate(traces):
                if trace is None:
                    continue
                if not live[i]:
                    trace.error = "cancelled"
                elif responses is None:
                    trace.error = ServiceClosedError.__name__
                else:
                    trace.total_seconds = responses[i].latency_seconds
                    if responses[i].error:
                        trace.error = responses[i].error
        n_live = sum(live)
        with self._lock:
            stats = self.stats
            stats.cancelled += len(pendings) - n_live
            if responses is None:
                stats.closed_errors += n_live
            elif synthesized:
                stats.errors += n_live
            else:
                stats.answered += n_live
                if tally is not None:
                    tally(stats, n_live)
        for i, pending in enumerate(pendings):
            if not live[i]:
                continue
            if responses is None:
                pending.future.set_exception(ServiceClosedError(closed))
            else:
                pending.future.set_result(responses[i])

    def _settle_closed(self, pendings: Sequence[_Pending]) -> None:
        """Close-time settlement: fail what the tier never answered."""
        self._settle(pendings)

    # ------------------------------------------------------------ observability
    def stats_snapshot(self) -> ServiceStats:
        """A consistent point-in-time copy of :attr:`stats`.

        Taken under the lock every counter mutation holds, so a snapshot
        read mid-burst can never show a torn view such as ``answered +
        errors + cancelled + closed_errors > submitted`` — the guarantee
        the gateway's ``stats`` verb and ``tests/test_stats_consistency.py``
        rely on.  Reading :attr:`stats` directly is only race-free once
        the service has quiesced.
        """
        with self._lock:
            return dataclasses.replace(self.stats, **{
                name: dict(value) for name, value in vars(self.stats).items()
                if isinstance(value, dict)})

    def metrics_snapshot(self) -> MetricsSnapshot:
        """A :class:`~repro.service.metrics.MetricsSnapshot` of this tier.

        Combines the consistent counter snapshot (``in_flight`` is its
        unsettled count) with the tier's gauges — queue depth, coalescing
        ratio, cache traffic, refresh cadence — and the dispatch
        batch-size histogram and latency reservoir.
        """
        stats = self.stats_snapshot()
        return MetricsSnapshot(
            in_flight=stats.unsettled,
            submitted=stats.submitted,
            answered=stats.answered,
            batch_histogram=self.metrics.batch_sizes.as_dict(),
            latency_ms=self.metrics.latency.percentiles(),
            latency_samples=self.metrics.latency.count,
            **self._gauges(stats))


class QueryService(ServingCore):
    """Concurrent query-serving facade over a model registry.

    Parameters
    ----------
    registry:
        The :class:`ModelRegistry` holding the fitted subject models.
    batch_window:
        Seconds the dispatcher waits after the first pending request for
        more to arrive before draining — the coalescing opportunity window.
        The window is timed from the oldest pending request's arrival: a
        lone request on an idle service waits it in full, a request that
        already waited it — behind the previous round's engine work — is
        drained at once.
    max_pending:
        Bound on admitted-but-unsettled requests; beyond it
        :meth:`submit` raises :class:`AdmissionError`.
    max_batch:
        Most requests drained per dispatch round, across all subjects.
    fairness_quantum:
        Most requests drained from any one subject per round.
    auto_start:
        Start the dispatcher thread immediately; pass ``False`` to enqueue
        first and :meth:`start` later (used by backpressure tests).
    tracer:
        Optional :class:`~repro.service.tracing.Tracer`.  When enabled it
        receives a per-request :class:`~repro.service.tracing.TraceContext`
        carrying the queue-wait / batch-wait / engine / cache segments;
        when absent (or disabled) the hot path performs no per-request
        trace work at all.

    Examples
    --------
    >>> registry = ModelRegistry()
    >>> registry.register("cache", unicorn)            # doctest: +SKIP
    >>> with QueryService(registry) as service:        # doctest: +SKIP
    ...     response = service.submit(
    ...         EffectRequest.of("cache", "Throughput",
    ...                          {"CachePolicy": 0.0}))
    """

    # Each tier binds ``submit`` in its own namespace: the benchmark's
    # span wrappers (``perfbench/tracing.py``) patch it per tier class.
    submit = ServingCore.submit

    def __init__(self, registry: ModelRegistry,
                 batch_window: float = 0.002,
                 max_pending: int = 1024,
                 max_batch: int = 256,
                 fairness_quantum: int = 32,
                 auto_start: bool = True,
                 tracer: Tracer | None = None) -> None:
        if max_batch < 1 or fairness_quantum < 1:
            raise ValueError("queue bounds must be >= 1")
        super().__init__(QueryServiceStats(), max_pending, tracer)
        self.registry = registry
        self.batcher = RequestBatcher()
        self.batch_window = float(batch_window)
        self.max_batch = int(max_batch)
        self.fairness_quantum = int(fairness_quantum)
        #: per-subject FIFO queues, in subject-arrival order, guarded by
        #: the core lock; the drain loop round-robins over this
        #: OrderedDict for fairness.
        self._queues: "OrderedDict[str, deque[_Pending]]" = OrderedDict()
        self._dispatch_index = 0
        self._thread: threading.Thread | None = None
        if auto_start:
            self.start()

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service already closed")
            if self._thread is not None:
                return
            self._thread = threading.Thread(target=self._dispatch_loop,
                                            name="query-service-dispatcher",
                                            daemon=True)
            self._thread.start()

    def _stop(self, timeout: float | None) -> list[_Pending]:
        """Let the dispatcher drain, then take what it left queued.

        A live dispatcher answers everything queued before it exits.  If
        it never started, or outlives the join timeout, the still-queued
        requests are taken off the queues under the lock — so a
        still-running dispatcher cannot also answer them — and returned
        for close-time settlement.
        """
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        with self._lock:
            leftovers = [pending for queue in self._queues.values()
                         for pending in queue]
            self._queues.clear()
        return leftovers

    # ------------------------------------------------------------ tier hooks
    def _route(self, request: QueryRequest) -> None:
        self.registry.get(request.subject)  # validate before queueing

    def _enqueue(self, pendings: list[_Pending], routes: list) -> None:
        for pending in pendings:
            self._queues.setdefault(pending.request.subject,
                                    deque()).append(pending)
        self._lock.notify_all()

    def _gauges(self, stats: QueryServiceStats) -> dict:
        with self._lock:
            queue_depth = sum(len(queue) for queue in self._queues.values())
        return {"queue_depth": queue_depth,
                "coalescing_ratio": stats.coalesced_ratio,
                "cache_hits": stats.cache_hits,
                "cache_misses": stats.cache_misses,
                "refreshes": self.registry.refreshes}

    # ------------------------------------------------------------ maintenance
    def observe(self, subject: str, measurements: Sequence,
                block: bool = True):
        """Stream new measurements into a subject's model.

        Pass-through to :meth:`ModelRegistry.observe
        <repro.service.registry.ModelRegistry.observe>` — eager or
        drift-aware depending on how the registry was configured.  The
        observe runs on the calling thread either way; ``block=False``
        returns it as a resolved :class:`Future`, the same surface as
        :meth:`ShardedQueryService.observe
        <repro.service.sharding.ShardedQueryService.observe>`.
        """
        version = self.registry.observe(subject, measurements)
        if block:
            return version
        future: Future = Future()
        future.set_result(version)
        return future

    def quiesce(self, timeout: float | None = 60.0) -> None:
        """Wait for outstanding background model refreshes to land.

        Pass-through to :meth:`ModelRegistry.quiesce
        <repro.service.registry.ModelRegistry.quiesce>`; a no-op unless
        the registry refreshes asynchronously.
        """
        self.registry.quiesce(timeout=timeout)

    # --------------------------------------------------------------- dispatch
    def _dispatch_loop(self) -> None:
        """Dispatcher thread: wait, window, drain fairly, answer."""
        while True:
            with self._lock:
                while not self._queues and not self._closed:
                    self._lock.wait()
                if not self._queues:
                    return
                oldest = min(queue[0].enqueued_at
                             for queue in self._queues.values())
            # Let a burst of concurrent submissions accumulate so they can
            # be coalesced, but only for what is left of the oldest
            # request's window.
            window_start = time.perf_counter()
            remaining = oldest + self.batch_window - window_start
            if remaining > 0:
                time.sleep(remaining)
            for subject, pendings in self._drain().items():
                self._answer(subject, pendings, window_start)

    def _drain(self) -> "OrderedDict[str, list[_Pending]]":
        """Take up to ``max_batch`` pending requests, round-robin by subject.

        Each pass over the subject queues takes at most
        ``fairness_quantum`` requests per subject, so a deep backlog on one
        subject cannot monopolise a drain round.  A subject that was
        served but still has a backlog is rotated to the back of the
        queue order, so when one round cannot reach every subject the
        next round starts with the subjects this one skipped — no subject
        starves no matter how many are backlogged.
        """
        drained: "OrderedDict[str, list[_Pending]]" = OrderedDict()
        with self._lock:
            budget = self.max_batch
            while budget > 0 and self._queues:
                for subject in list(self._queues):
                    queue = self._queues[subject]
                    quantum = min(self.fairness_quantum, budget)
                    taken = drained.setdefault(subject, [])
                    while queue and quantum > 0:
                        taken.append(queue.popleft())
                        quantum -= 1
                        budget -= 1
                    if not queue:
                        del self._queues[subject]
                    else:
                        self._queues.move_to_end(subject)
                    if budget <= 0:
                        break
        return drained

    def _answer(self, subject: str, pendings: list[_Pending],
                window_start: float) -> None:
        """Answer one subject's drained requests with one batcher call.

        ``window_start`` is when the dispatcher took the round up; the
        traced batch wait runs from it to this subject's engine call.
        """
        self._dispatch_index += 1
        batcher = self.batcher
        calls, hits, misses = (batcher.calls, batcher.cache_hits,
                               batcher.cache_misses)
        requests = [p.request for p in pendings]
        traces = None
        try:
            # claim_round() retires each request's oldest live context —
            # exactly the occurrence its response settles — and the one
            # aligned list serves the batcher's annotations and the
            # settlement step: one tracer-lock pass per round.
            if self.tracer.enabled:
                traces = self.tracer.claim_round(requests)
            dispatch_start = time.perf_counter()
            responses = batcher.answer(self.registry, subject, requests,
                                       self._dispatch_index, traces=traces)
        except Exception as exc:  # noqa: BLE001 - the batcher already
            # isolates engine errors per response; anything else must not
            # kill the dispatcher, so the round settles as errors.
            error = f"dispatch round failed: {exc}"
            self._settle(pendings, [QueryResponse(
                request=p.request, subject=subject, model_version=-1,
                value=None, error=error) for p in pendings],
                synthesized=True, traces=traces)
            return
        if traces is not None:
            for pending, trace in zip(pendings, traces):
                if trace is not None:
                    trace.queue_wait_seconds = \
                        dispatch_start - pending.enqueued_at
                    trace.batch_wait_seconds = \
                        dispatch_start - window_start
        engine_calls = batcher.calls - calls
        cache_hits = batcher.cache_hits - hits
        cache_misses = batcher.cache_misses - misses

        def tally(stats: QueryServiceStats, answered: int) -> None:
            stats.dispatches += 1
            stats.engine_calls += engine_calls
            stats.cache_hits += cache_hits
            stats.cache_misses += cache_misses
            stats.max_batch_observed = max(stats.max_batch_observed,
                                           len(pendings))
            stats.per_subject[subject] = \
                stats.per_subject.get(subject, 0) + answered

        self._settle(pendings, responses, traces=traces, tally=tally)
