"""The thread-safe query-serving facade.

:class:`QueryService` is what a deployment exposes to its clients: a
``submit`` / ``submit_many`` surface over the
:class:`~repro.service.registry.ModelRegistry` and
:class:`~repro.service.batcher.RequestBatcher`.  Client threads enqueue
requests and block on futures; a dispatcher thread drains the queue in
small timed windows, groups what arrived together, and answers each group
with one batched engine call.  The lifecycle of a request is::

    submit() ──admission──▶ per-subject queue ──drain──▶ RequestBatcher
                                                            │ one *_batch
                                                            ▼ engine call
    client ◀────────────── future.result() ◀──────────── QueryResponse

Three serving policies are enforced here rather than in the batcher:

* **Admission control** — at most ``max_pending`` requests may be queued;
  beyond that :meth:`submit` raises :class:`AdmissionError` immediately
  (backpressure the caller can see) instead of growing an unbounded queue.
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
from typing import Sequence

from repro.service.batcher import RequestBatcher
from repro.service.metrics import MetricsSnapshot, ServiceMetrics
from repro.service.registry import ModelRegistry
from repro.service.requests import QueryRequest, QueryResponse
from repro.service.tracing import Tracer


class ServiceClosedError(RuntimeError):
    """Raised when submitting to a service that has been closed."""


class AdmissionError(RuntimeError):
    """Raised when the bounded in-flight queue rejects a submission."""


@dataclass
class ServiceStats:
    """Counters describing one service's lifetime of work.

    ``coalesced_ratio`` is requests answered per engine call — the
    serving-layer speedup lever (1.0 means no coalescing happened).
    ``cache_hits`` / ``cache_misses`` count distinct item keys served
    from (or stored into) the per-entry cross-request
    :class:`~repro.service.result_cache.ResultCache`; a hit answers
    without any engine call at all.
    """

    submitted: int = 0
    answered: int = 0
    rejected: int = 0
    dispatches: int = 0
    engine_calls: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    max_batch_observed: int = 0
    #: futures that could not be resolved (client cancelled them while
    #: queued) and dispatch rounds that raised unexpectedly — both are
    #: absorbed so the dispatcher thread survives.
    cancelled: int = 0
    dispatch_errors: int = 0
    #: futures resolved with :class:`ServiceClosedError` because
    #: :meth:`QueryService.close` found them still queued with no
    #: dispatcher left to answer them.
    closed_errors: int = 0
    per_subject: dict = field(default_factory=dict)

    @property
    def coalesced_ratio(self) -> float:
        """Requests answered per engine call (>= 1.0 once work happened)."""
        return self.answered / max(self.engine_calls, 1)


@dataclass
class _Pending:
    """A queued request with its future and enqueue timestamp."""

    request: QueryRequest
    future: Future
    enqueued_at: float


class QueryService:
    """Concurrent query-serving facade over a model registry.

    Parameters
    ----------
    registry:
        The :class:`ModelRegistry` holding the fitted subject models.
    batch_window:
        Seconds the dispatcher waits after the first pending request for
        more to arrive before draining — the coalescing opportunity window.
    max_pending:
        Bound on queued requests; beyond it :meth:`submit` raises
        :class:`AdmissionError`.
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

    def __init__(self, registry: ModelRegistry,
                 batch_window: float = 0.002,
                 max_pending: int = 1024,
                 max_batch: int = 256,
                 fairness_quantum: int = 32,
                 auto_start: bool = True,
                 tracer: Tracer | None = None) -> None:
        if max_pending < 1 or max_batch < 1 or fairness_quantum < 1:
            raise ValueError("queue bounds must be >= 1")
        self.registry = registry
        self.batcher = RequestBatcher()
        self.batch_window = float(batch_window)
        self.max_pending = int(max_pending)
        self.max_batch = int(max_batch)
        self.fairness_quantum = int(fairness_quantum)
        self.stats = ServiceStats()
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.metrics = ServiceMetrics()
        #: innermost lock guarding every ``self.stats`` mutation and the
        #: consistent :meth:`stats_snapshot` copy; never held while
        #: acquiring ``self._cv``.
        self._stats_lock = threading.Lock()

        #: per-subject FIFO queues, in subject-arrival order; the drain
        #: loop round-robins over this OrderedDict for fairness.
        self._queues: "OrderedDict[str, deque[_Pending]]" = OrderedDict()
        self._n_pending = 0
        self._cv = threading.Condition()
        self._closed = False
        self._dispatch_index = 0
        self._thread: threading.Thread | None = None
        if auto_start:
            self.start()

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        with self._cv:
            if self._closed:
                raise ServiceClosedError("service already closed")
            if self._thread is not None:
                return
            self._thread = threading.Thread(target=self._dispatch_loop,
                                            name="query-service-dispatcher",
                                            daemon=True)
            self._thread.start()

    def close(self, timeout: float | None = 10.0) -> None:
        """Drain outstanding work, stop the dispatcher, settle every future.

        Requests already queued are still answered by the dispatcher
        before it exits; new submissions raise
        :class:`ServiceClosedError`.  If the dispatcher cannot finish the
        drain — it never started, or it is still busy when ``timeout``
        expires — the still-queued requests are taken off the queues and
        their futures resolve with a deterministic
        :class:`ServiceClosedError`, so a client blocked in
        ``future.result()`` always gets a definite outcome (the answer,
        or the error) rather than hanging on a cancelled or leaked
        entry.  Requests a live dispatcher had already drained keep their
        promise and are answered normally.
        """
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._cv.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        # Whatever is still queued at this point will never be drained by
        # a healthy dispatcher (none ever ran, or it outlived the join
        # timeout); taking the entries off the queues under the lock
        # guarantees a still-running dispatcher cannot also answer them.
        with self._cv:
            leftovers = [pending for queue in self._queues.values()
                         for pending in queue]
            self._queues.clear()
            self._n_pending = 0
        for pending in leftovers:
            if not pending.future.set_running_or_notify_cancel():
                with self._stats_lock:
                    self.stats.cancelled += 1
                continue
            with self._stats_lock:
                self.stats.closed_errors += 1
            trace = self.tracer.finish(pending.request)
            if trace is not None:
                trace.error = "service closed before dispatch"
            pending.future.set_exception(ServiceClosedError(
                "service closed before the request was dispatched"))

    def __enter__(self) -> "QueryService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ submission
    def submit_async(self, request: QueryRequest) -> Future:
        """Enqueue one request and return its :class:`Future`.

        The future resolves to a :class:`QueryResponse` (engine failures
        surface in ``response.error``, not as future exceptions).

        Raises
        ------
        AdmissionError
            If the bounded queue is full — the backpressure signal; retry
            after backing off or after outstanding futures resolve.
        ServiceClosedError
            If the service has been closed.
        UnknownSubjectError
            If the request names a subject the registry does not hold.
        """
        self.registry.get(request.subject)  # validate before queueing
        pending = _Pending(request=request, future=Future(),
                           enqueued_at=time.perf_counter())
        # The context must exist before the dispatcher can possibly see
        # the request, so the batcher's lookup never races a late begin.
        trace = self.tracer.begin(request)
        try:
            with self._cv:
                if self._closed:
                    raise ServiceClosedError("service is closed")
                if self._n_pending >= self.max_pending:
                    with self._stats_lock:
                        self.stats.rejected += 1
                    raise AdmissionError(
                        f"in-flight queue full ({self.max_pending} pending);"
                        " back off and retry")
                self._queues.setdefault(request.subject,
                                        deque()).append(pending)
                self._n_pending += 1
                with self._stats_lock:
                    self.stats.submitted += 1
                self._cv.notify_all()
        except Exception as exc:
            if trace is not None:
                trace.error = type(exc).__name__
                self.tracer.finish(request, trace)
            raise
        return pending.future

    def submit(self, request: QueryRequest,
               timeout: float | None = None) -> QueryResponse:
        """Enqueue one request and block until its response arrives.

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
            If the queue rejected the submission (see :meth:`submit_async`).
        concurrent.futures.TimeoutError
            If the answer did not arrive within ``timeout``.
        """
        return self.submit_async(request).result(timeout=timeout)

    def submit_many(self, requests: Sequence[QueryRequest],
                    timeout: float | None = None) -> list[QueryResponse]:
        """Enqueue a list of requests and wait for all their responses.

        The list is admitted atomically (all requests or none), so a
        client's coherent batch cannot be half-rejected.

        Raises
        ------
        AdmissionError
            If the whole list does not fit in the queue.
        """
        requests = list(requests)
        deadline = (None if timeout is None
                    else time.monotonic() + float(timeout))
        for request in requests:
            self.registry.get(request.subject)
        futures = []
        # One bulk begin: a single tracer-lock handshake for the whole
        # slice instead of one per request.
        self.tracer.begin_many(requests)
        with self._cv:
            if self._closed:
                raise ServiceClosedError("service is closed")
            if self._n_pending + len(requests) > self.max_pending:
                with self._stats_lock:
                    self.stats.rejected += len(requests)
                if self.tracer.enabled:
                    for request in requests:
                        self.tracer.finish(request)
                raise AdmissionError(
                    f"in-flight queue cannot admit {len(requests)} more "
                    f"requests ({self._n_pending}/{self.max_pending} used)")
            now = time.perf_counter()
            for request in requests:
                pending = _Pending(request=request, future=Future(),
                                   enqueued_at=now)
                self._queues.setdefault(request.subject,
                                        deque()).append(pending)
                futures.append(pending.future)
            self._n_pending += len(requests)
            with self._stats_lock:
                self.stats.submitted += len(requests)
            self._cv.notify_all()
        # One shared deadline: ``timeout`` bounds the whole call, not each
        # future individually.
        return [future.result(
                    timeout=None if deadline is None
                    else max(deadline - time.monotonic(), 0.0))
                for future in futures]

    @property
    def n_pending(self) -> int:
        """Requests currently queued (not yet dispatched)."""
        with self._cv:
            return self._n_pending

    # ------------------------------------------------------------ observability
    def stats_snapshot(self) -> ServiceStats:
        """A consistent point-in-time copy of :attr:`stats`.

        Taken under the same lock every counter mutation holds, so a
        snapshot read mid-burst can never show a torn view such as
        ``answered + dispatch_errors + closed_errors > submitted`` —
        the guarantee the gateway's ``stats`` verb and the regression
        test in ``tests/test_stats_consistency.py`` rely on.  Reading
        :attr:`stats` directly remains possible but is only
        race-free once the service has quiesced.
        """
        with self._stats_lock:
            return dataclasses.replace(
                self.stats, per_subject=dict(self.stats.per_subject))

    def metrics_snapshot(self) -> MetricsSnapshot:
        """A :class:`~repro.service.metrics.MetricsSnapshot` of this tier.

        Combines the consistent counter snapshot with the live gauges
        (queue depth, in-flight estimate), the dispatch batch-size
        histogram, the latency reservoir's p50/p95/p99, and the
        registry's refresh cadence.
        """
        with self._cv:
            queue_depth = self._n_pending
        stats = self.stats_snapshot()
        in_flight = max(0, stats.submitted - stats.answered
                        - stats.cancelled - stats.closed_errors)
        return MetricsSnapshot(
            queue_depth=queue_depth,
            in_flight=in_flight,
            submitted=stats.submitted,
            answered=stats.answered,
            coalescing_ratio=stats.coalesced_ratio,
            cache_hits=stats.cache_hits,
            cache_misses=stats.cache_misses,
            refreshes=self.registry.refreshes,
            batch_histogram=self.metrics.batch_sizes.as_dict(),
            latency_ms=self.metrics.latency.percentiles(),
            latency_samples=self.metrics.latency.count)

    # ------------------------------------------------------------ maintenance
    def observe(self, subject: str, measurements: Sequence,
                block: bool = True) -> int:
        """Stream new measurements into a subject's model.

        Pass-through to :meth:`ModelRegistry.observe
        <repro.service.registry.ModelRegistry.observe>` — eager or
        drift-aware depending on how the registry was configured — so a
        :class:`QueryService` and a
        :class:`~repro.service.sharding.ShardedQueryService` expose the
        same maintenance surface to workload drivers.  ``block`` exists
        for that surface symmetry: an in-process observe is processed on
        the calling thread either way and always returns the version.
        """
        return self.registry.observe(subject, measurements)

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
            with self._cv:
                while not self._n_pending and not self._closed:
                    self._cv.wait()
                if self._closed and not self._n_pending:
                    return
            # Let a burst of concurrent submissions accumulate so they can
            # be coalesced; clients blocked on futures are waiting anyway.
            if self.batch_window > 0:
                time.sleep(self.batch_window)
            batch = self._drain()
            if batch:
                try:
                    self._answer(batch)
                except Exception as exc:  # noqa: BLE001 - the dispatcher
                    # must survive anything _answer lets through (it
                    # already isolates engine errors per response); a dead
                    # dispatcher would hang every future submission.  The
                    # drained futures of the failed round were removed
                    # from the queues, so resolve them with an error
                    # instead of leaving their clients blocked forever.
                    with self._stats_lock:
                        self.stats.dispatch_errors += 1
                    for pendings in batch.values():
                        for pending in pendings:
                            trace = self.tracer.finish(pending.request)
                            if trace is not None:
                                trace.error = f"dispatch round failed: {exc}"
                            self._resolve(pending, QueryResponse(
                                request=pending.request,
                                subject=pending.request.subject,
                                model_version=-1, value=None,
                                error=f"dispatch round failed: {exc}"))

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
        with self._cv:
            budget = self.max_batch
            while budget > 0:
                took_any = False
                for subject in list(self._queues):
                    queue = self._queues[subject]
                    quantum = min(self.fairness_quantum, budget)
                    taken = drained.setdefault(subject, [])
                    while queue and quantum > 0:
                        taken.append(queue.popleft())
                        self._n_pending -= 1
                        quantum -= 1
                        budget -= 1
                        took_any = True
                    if not queue:
                        del self._queues[subject]
                    else:
                        self._queues.move_to_end(subject)
                    if budget <= 0:
                        break
                if not took_any:
                    break
            self._cv.notify_all()
        return OrderedDict((s, p) for s, p in drained.items() if p)

    def _resolve(self, pending: _Pending, response: QueryResponse) -> None:
        """Set a response on a pending future, tolerating cancellation.

        A client may have cancelled its future while the request was
        queued; that must not kill the dispatcher or starve the other
        futures of the round.
        """
        if not pending.future.set_running_or_notify_cancel():
            with self._stats_lock:
                self.stats.cancelled += 1
            return
        pending.future.set_result(response)

    def _answer(self, batch: "OrderedDict[str, list[_Pending]]") -> None:
        """Dispatch one drained round, one batcher call per subject."""
        tracing = self.tracer.enabled
        for subject, pendings in batch.items():
            self._dispatch_index += 1
            index = self._dispatch_index
            calls_before = self.batcher.calls
            hits_before = self.batcher.cache_hits
            misses_before = self.batcher.cache_misses
            requests = [p.request for p in pendings]
            # claim_round() retires each request's oldest live context —
            # exactly the occurrence its response settles, so repeats of
            # one hot request object each stamp their own context — and
            # the one aligned list serves the batcher's annotations and
            # the settle loop below: one tracer-lock pass per round.
            traces = (self.tracer.claim_round(requests) if tracing
                      else None)
            dispatch_start = time.perf_counter()
            responses = self.batcher.answer(self.registry, subject,
                                            requests, index, traces=traces)
            now = time.perf_counter()
            latencies = []
            if traces is None:
                traces = [None] * len(pendings)
            for pending, response, trace in zip(pendings, responses,
                                                traces):
                response.latency_seconds = now - pending.enqueued_at
                latencies.append(response.latency_seconds)
                if trace is not None:
                    trace.queue_wait_seconds = \
                        dispatch_start - pending.enqueued_at
                    trace.batch_wait_seconds = self.batch_window
                    trace.total_seconds = response.latency_seconds
                    if response.error:
                        trace.error = response.error
            self.metrics.observe_dispatch(len(pendings), latencies)
            with self._stats_lock:
                self.stats.dispatches += 1
                self.stats.answered += len(responses)
                self.stats.engine_calls += self.batcher.calls - calls_before
                self.stats.cache_hits += \
                    self.batcher.cache_hits - hits_before
                self.stats.cache_misses += \
                    self.batcher.cache_misses - misses_before
                self.stats.max_batch_observed = max(
                    self.stats.max_batch_observed, len(pendings))
                per_subject = self.stats.per_subject
                per_subject[subject] = per_subject.get(subject, 0) \
                    + len(responses)
            # Resolve only after the round's stats are published: a
            # client whose future just completed must never read a
            # snapshot that has not yet counted its answer.
            for pending, response in zip(pendings, responses):
                self._resolve(pending, response)
