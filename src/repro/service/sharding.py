"""Sharded multi-process query serving.

:class:`ShardedQueryService` scales the PR 4 serving stack past one
process and one GIL: subjects are hash-partitioned across ``shards``
worker replicas (:mod:`repro.service.worker`), each hosting its own
:class:`~repro.service.registry.ModelRegistry` and
:class:`~repro.service.batcher.RequestBatcher` behind a spawn-safe IPC
loop.  The parent runs the request lifecycle every tier shares
(:class:`~repro.service.service.ServingCore`: admission, ``submit`` /
``submit_async`` / ``submit_many``, settlement, close and snapshots),
routes every request to its subject's shard, coalesces concurrently
submitted requests into per-shard dispatch batches, and adds the serving
policies a multi-process tier needs:

* **Deterministic routing** — :func:`shard_of` hashes the subject name
  with SHA-256, so the shard assignment is a pure function of
  ``(subject, shards)``: stable across processes, runs and machines
  (Python's salted ``hash`` would not be).
* **Byte-identical answers** — workers fit their subjects from *specs*
  through :meth:`~repro.service.registry.ModelRegistry.register_spec`,
  a pure function of the spec, and refresh decisions are a deterministic
  function of the observation stream; answers therefore match the
  single-process :class:`~repro.service.service.QueryService` over
  :func:`registry_from_specs` byte for byte, for any shard count.  Each
  worker's per-entry :class:`~repro.service.result_cache.ResultCache` is
  scoped to its own replica and keyed by model version (invalidated by
  the observe-triggered refreshes it replays from the journal after a
  crash), so cached answers preserve the identity — hit/miss counts ride
  in :meth:`worker_stats` payloads.
* **Crash recovery** — a liveness monitor respawns a dead worker,
  restores its subjects (from the persistent model store's latest
  snapshots when ``store_path`` is set — no refit, no CI tests — and by
  refitting from specs otherwise), replays the shard's observation
  journal (so the replica reconverges to the exact pre-crash model
  state, including the drift detector's refresh schedule) and requeues
  the in-flight batches, up to ``max_requeues`` per batch before the
  batch's futures resolve with an error response instead of
  crash-looping.  With a store, each worker acknowledgement carries the
  subject's durable *snapshot watermark* and the parent compacts the
  journal up to it, so recovery replays only the journal **suffix**
  past the snapshot — the worker-side ``applied_op_id`` guard makes any
  overlap idempotent.
* **Backpressure and lifecycle** — shared with the single-process tier:
  a bounded in-flight budget raises
  :class:`~repro.service.service.AdmissionError`, and ``close()`` drains
  admitted work then resolves anything left with a deterministic
  :class:`~repro.service.service.ServiceClosedError`.

Ordering is preserved end to end: per shard, dispatches, observes,
quiesces and shutdown travel through one FIFO outbox and one FIFO command
queue, so :meth:`quiesce` is a true barrier — when it returns, every
previously submitted command on every shard (including background drift
refreshes) has completed.  Interleave observation phases and query phases
around :meth:`quiesce` and the serving history is deterministic, which is
how the byte-identity tests compare sharded against single-process runs.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import queue as queue_module
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.service.registry import (
    ModelRegistry,
    UnknownSubjectError,
    _require_finite,
)
from repro.service.requests import QueryRequest, QueryResponse
from repro.service.service import (
    ServiceClosedError,
    ServiceStats,
    ServingCore,
    _Pending,
)
from repro.service.store import ModelStore, subject_key
from repro.service.tracing import Tracer
from repro.service.worker import run_shard_server, run_shard_thread


class RollingRefreshError(RuntimeError):
    """A rolling refresh failed; the fleet was rolled back where possible.

    Raised by :meth:`ShardedQueryService.rolling_refresh` after the
    failing shard kept (or was restored to) its previous generation and
    every shard upgraded earlier in the same sweep was downgraded back —
    the fleet is serving the *old* model generation when this surfaces.
    """


def shard_of(subject: str, shards: int) -> int:
    """Deterministic shard index of a subject key.

    SHA-256 of the UTF-8 subject name, reduced modulo ``shards`` — stable
    across interpreter runs and process boundaries, unlike the builtin
    (salted) ``hash``.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    digest = hashlib.sha256(subject.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


def registry_from_specs(specs: Mapping[str, Mapping],
                        **registry_options) -> ModelRegistry:
    """Fit every ``subject -> spec`` into one single-process registry.

    The reference construction the sharded tier is held byte-identical
    to: the same :meth:`~repro.service.registry.ModelRegistry.
    register_spec` fits, in one process.  Keyword arguments are forwarded
    to :class:`ModelRegistry`; ``capacity`` defaults to the number of
    subjects so nothing is evicted mid-comparison.
    """
    registry_options.setdefault("capacity", max(len(specs), 1))
    registry = ModelRegistry(**registry_options)
    for subject, spec in specs.items():
        registry.register_spec(subject, spec)
    return registry


def _roll_store_back(store: ModelStore,
                     versions: Mapping[str, int | None]) -> None:
    """Point each store key back at its recorded version (``None``:
    the key did not exist before, so discard it)."""
    for key, version in versions.items():
        if version is None:
            store.discard(key)
        else:
            store.rollback(key, to_version=version)


@dataclass
class ShardedServiceStats(ServiceStats):
    """:class:`~repro.service.service.ServiceStats` plus the sharded
    tier's parent-side counters.

    ``errors`` counts requests settled with a parent-synthesized error
    response (requeue-budget exhaustion after repeated worker crashes).
    """

    #: dispatch batches resent to a respawned worker after a crash.
    requeues: int = 0
    #: workers respawned by the liveness monitor.
    respawns: int = 0
    #: dispatch batches sent (per-shard coalescing opportunities).
    dispatch_batches: int = 0
    #: journal entries dropped because a durable snapshot covered them.
    journal_ops_compacted: int = 0
    #: fleet-wide :meth:`ShardedQueryService.rolling_refresh` sweeps that
    #: completed (every shard now serves the new model generation).
    rolling_refreshes: int = 0
    #: shards downgraded back to their previous generation after a
    #: failed rolling-refresh sweep.
    refresh_rollbacks: int = 0
    per_shard_answered: dict = field(default_factory=dict)


@dataclass
class _ControlOp:
    """A non-dispatch outbox entry (observe / quiesce / stats / shutdown)."""

    verb: str
    op_id: int
    future: Future | None = None
    payload: tuple = ()


class _Shard:
    """Parent-side handle of one worker: queues, runner, tracking state."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.subjects: dict[str, Mapping] = {}
        self.command_queue = None
        self.result_queue = None
        self.runner = None
        #: submissions not yet sent to the worker, in arrival order.
        self.outbox: deque = deque()
        self.cv = threading.Condition()
        #: guards queue swaps (respawn) and every ``put`` to the worker.
        self.lock = threading.Lock()
        #: dispatch batches sent but not yet answered.
        self.inflight: dict[int, list[_Pending]] = {}
        self.requeue_counts: dict[int, int] = {}
        #: control ops awaiting replies, by op id.
        self.control: dict[int, _ControlOp] = {}
        #: observes not yet covered by a durable snapshot, kept for
        #: deterministic crash replay.  With a model store configured,
        #: every ``done`` reply carries the snapshot watermarks of the
        #: subjects it covers and the parent drops journal entries at or
        #: below them (suffix compaction) — the journal stays bounded by
        #: the snapshot cadence instead of growing with the stream.
        #: Without a store it degrades to the pre-store behaviour: the
        #: full journal, replayed in its entirety on respawn.  See
        #: docs/serving.md.
        self.journal: list[tuple[int, str, Sequence]] = []
        #: set when a respawn failed permanently; the shard fails new
        #: work fast instead of queueing it for a worker that will never
        #: answer.
        self.failed = False
        #: model generation of the currently installed worker, bumped at
        #: every rolling-refresh queue swap.  The reader captures it with
        #: the result queue and discards replies whose generation no
        #: longer matches — a swapped-out worker's final messages (its
        #: ``bye``, a late ack) must not be resolved against the new
        #: generation's tracking.
        self.generation = 0
        #: sender gate: ``True`` while a rolling refresh drains/replaces
        #: this shard's worker; submissions keep queueing on the outbox
        #: and are sent when the new generation is admitted.
        self.paused = False
        #: ``True`` while a rolling refresh owns this shard's worker
        #: lifecycle; the reader's liveness monitor must not respawn the
        #: old generation out from under it.
        self.refreshing = False
        self.sender: threading.Thread | None = None
        self.reader: threading.Thread | None = None
        #: most recent worker-side counters (set by ``worker_stats``);
        #: lets ``metrics_snapshot`` report fleet cache traffic without
        #: an IPC round-trip.
        self.last_stats: dict | None = None

    def alive(self) -> bool:
        """Whether this shard's worker process/thread is running."""
        return self.runner is not None and self.runner.is_alive()


class ShardedQueryService(ServingCore):
    """Hash-sharded, multi-process serving tier over spec-fitted subjects.

    Parameters
    ----------
    specs:
        ``subject name -> spec`` mapping; each worker fits its shard's
        subjects from these specs at startup (see
        :meth:`~repro.service.registry.ModelRegistry.get_or_fit` for the
        recognised spec keys).
    shards:
        Number of worker replicas; subjects are assigned by
        :func:`shard_of`.
    use_processes:
        ``True`` (default) runs each worker as a daemon process over
        ``multiprocessing`` queues (``fork`` where available, ``spawn``
        otherwise).  ``False`` runs the identical worker loop on daemon
        threads in this process — the mode single-core test environments
        use; messages still cross the same pickled-queue transport.
    use_batched, drift_threshold, drift_min_window, refresh_async,
    result_cache_size:
        Forwarded to each worker's private :class:`ModelRegistry`
        (``result_cache_size=0`` disables cross-request memoization).
    batch_window:
        Seconds the per-shard sender waits after the first pending
        submission for more to arrive before flushing — the cross-client
        coalescing window (0 flushes immediately).
    max_pending:
        Bound on admitted-but-unsettled requests across the service;
        beyond it :meth:`submit_async` raises :class:`AdmissionError`.
    max_requeues:
        Crash-requeue budget per dispatch batch; exhausted batches
        resolve with error responses instead of respawn-looping.
    start_timeout:
        Seconds to wait for a worker to fit its subjects at startup (and
        again on respawn) before giving up.
    store_path:
        Directory of a persistent :class:`~repro.service.store.ModelStore`
        shared by every worker (each opens it by path — a plain string
        crosses the ``spawn`` process boundary).  Workers then cold-start
        and crash-recover by *loading* their subjects' latest snapshots
        instead of refitting, publish fresh snapshots at every refresh
        boundary, and the parent compacts its observation journal up to
        each acknowledged snapshot watermark.  ``None`` (default) keeps
        the in-memory refit-plus-full-replay behaviour.
    snapshot_every:
        Forwarded to each worker registry: in eager mode
        (``drift_threshold=None``) a durable snapshot is published every
        N-th observe fold rather than every fold, bounding durability
        cost on hot observation streams (the journal covers the gap).

    Examples
    --------
    >>> specs = {"db": {"system": "sqlite", "n_samples": 60}}
    >>> with ShardedQueryService(specs, shards=4) as service:  # doctest: +SKIP
    ...     response = service.submit(
    ...         EffectRequest.of("db", "QueryTime",
    ...                          {"PRAGMA_CACHE_SIZE": 4096.0}))
    """

    # Bound here as well for the benchmark's per-tier span wrappers.
    submit = ServingCore.submit

    def __init__(self, specs: Mapping[str, Mapping], shards: int = 2,
                 use_processes: bool = True, use_batched: bool = True,
                 drift_threshold: float | None = None,
                 drift_min_window: int = 4, refresh_async: bool = True,
                 batch_window: float = 0.001, max_pending: int = 4096,
                 max_requeues: int = 2,
                 start_timeout: float = 300.0,
                 result_cache_size: int | None = 256,
                 store_path: str | None = None,
                 snapshot_every: int = 1,
                 tracer: Tracer | None = None) -> None:
        if not specs:
            raise ValueError("a sharded service needs at least one subject")
        if shards < 1 or max_requeues < 0:
            raise ValueError("shards must be >= 1, max_requeues >= 0")
        super().__init__(ShardedServiceStats(), max_pending, tracer)
        self.shards = int(shards)
        self.use_processes = bool(use_processes)
        self.batch_window = float(batch_window)
        self.max_requeues = int(max_requeues)
        self.start_timeout = float(start_timeout)
        self._registry_options = {
            "use_batched": bool(use_batched),
            "drift_threshold": drift_threshold,
            "drift_min_window": int(drift_min_window),
            "refresh_async": bool(refresh_async),
            "result_cache_size": result_cache_size,
            "store": None if store_path is None else str(store_path),
            "snapshot_every": int(snapshot_every),
        }
        self.store_path = None if store_path is None else str(store_path)
        self._ctx = (mp.get_context("fork")
                     if "fork" in mp.get_all_start_methods()
                     else mp.get_context("spawn"))
        #: serializes whole rolling-refresh sweeps; one at a time.
        self._refresh_lock = threading.Lock()
        self._next_batch_id = 0
        self._next_op_id = 0
        self._subject_shard: dict[str, int] = {}
        self._shards: list[_Shard] = [_Shard(i) for i in range(self.shards)]
        for subject, spec in specs.items():
            index = shard_of(subject, self.shards)
            self._subject_shard[subject] = index
            self._shards[index].subjects[subject] = dict(spec)
        for shard in self._shards:
            shard.command_queue, shard.result_queue, shard.runner = \
                self._launch(shard.index, shard.subjects, "fit")
        for shard in self._shards:
            shard.sender = threading.Thread(
                target=self._sender_loop, args=(shard,),
                name=f"shard-{shard.index}-sender", daemon=True)
            shard.reader = threading.Thread(
                target=self._reader_loop, args=(shard,),
                name=f"shard-{shard.index}-reader", daemon=True)
            shard.sender.start()
            shard.reader.start()

    # -------------------------------------------------------------- lifecycle
    def _launch(self, index: int, subjects: Mapping[str, Mapping],
                verb: str) -> tuple:
        """Start one worker on fresh queues and wait out its fits.

        The one launch path of start, respawn and rolling refresh:
        ``verb`` is ``"fit"`` (restore from the store, else fit from the
        spec) or ``"upgrade"`` (always fit fresh).  Fresh queues on every
        launch are deliberate: commands left in a dead or replaced
        worker's queue must never be double-executed by its successor —
        recovery replays from the parent's own journal and in-flight
        tracking instead.  Returns ``(command_queue, result_queue,
        runner)``; on any failure the worker is killed before the error
        propagates, so it cannot outlive the failed launch.
        """
        options = dict(self._registry_options,
                       capacity=max(len(subjects), 1))
        command_queue = self._ctx.Queue()
        result_queue = self._ctx.Queue()
        args = (index, command_queue, result_queue, options)
        if self.use_processes:
            runner = self._ctx.Process(target=run_shard_server, args=args,
                                       name=f"shard-worker-{index}",
                                       daemon=True)
        else:
            runner = threading.Thread(target=run_shard_thread, args=args,
                                      name=f"shard-worker-{index}",
                                      daemon=True)
        runner.start()
        try:
            for subject, spec in subjects.items():
                command_queue.put((verb, subject, spec))
            deadline = time.monotonic() + self.start_timeout
            for _ in subjects:
                message = self._next_fit_reply(index, result_queue, runner,
                                               deadline)
                if message[0] == "fit_error":
                    raise RuntimeError(f"shard {index} failed to fit "
                                       f"{message[1]!r}: {message[2]}")
                # A subject restored from a store snapshot carries the
                # op-id watermark of the service generation that
                # published it; start our own op ids past it so fresh
                # observes are never skipped as replays of a previous
                # generation.
                with self._lock:
                    self._next_op_id = max(self._next_op_id,
                                           int(message[3]))
        except BaseException:
            if self.use_processes:
                runner.terminate()
                runner.join(timeout=5.0)
            else:
                # A thread cannot be terminated; ask it to exit.  Nothing
                # in its registry advanced past what it loaded or fitted,
                # so the shutdown flush publishes nothing new.
                command_queue.put(("shutdown",))
            raise
        return command_queue, result_queue, runner

    def _next_fit_reply(self, index: int, result_queue, runner,
                        deadline: float) -> tuple:
        """Wait out one fit acknowledgement, in short polls.

        Polling (instead of one long blocking ``get``) is what lets
        :meth:`close` interrupt a reader thread stuck refitting inside
        :meth:`_respawn` — shutdown no longer waits out the full
        ``start_timeout`` against a half-restored worker — and lets the
        rolling-refresh path notice an upgrade worker that died mid-fit.
        """
        while True:
            if self._closed:
                raise ServiceClosedError(
                    f"service closed while shard {index} was fitting "
                    "its subjects")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"shard {index} did not fit its subjects within "
                    f"{self.start_timeout}s") from None
            try:
                return result_queue.get(timeout=min(remaining, 0.1))
            except queue_module.Empty:
                if runner is not None and not runner.is_alive():
                    raise RuntimeError(
                        f"shard {index} worker died before finishing "
                        "its fits") from None

    # ------------------------------------------------------------- tier hooks
    def _route(self, request: QueryRequest) -> _Shard:
        index = self._subject_shard.get(request.subject)
        if index is None:
            raise UnknownSubjectError(
                f"unknown subject {request.subject!r}; served subjects: "
                f"{sorted(self._subject_shard)}")
        shard = self._shards[index]
        if shard.failed:
            raise ServiceClosedError(
                f"shard {index} failed permanently (worker could not be "
                "respawned); its subjects are unavailable")
        return shard

    def _enqueue(self, pendings: list[_Pending],
                 shards: list[_Shard]) -> None:
        for shard in dict.fromkeys(shards):  # one outbox append per shard
            with shard.cv:
                shard.outbox.extend(pending for pending, target
                                    in zip(pendings, shards)
                                    if target is shard)
                shard.cv.notify_all()

    def _gauges(self, stats: ShardedServiceStats) -> dict:
        """Parent-side gauges only (no worker round-trips, so a metrics
        snapshot is cheap enough to poll): queue depth is the sum of the
        per-shard outboxes, the coalescing ratio is answers per dispatch
        batch, cache traffic sums the counters each shard last reported
        through :meth:`worker_stats`, and ``refreshes`` counts completed
        rolling-refresh sweeps."""
        queue_depth = hits = misses = 0
        for shard in self._shards:
            with shard.cv:
                queue_depth += len(shard.outbox)
            if shard.last_stats:
                hits += int(shard.last_stats.get("cache_hits", 0))
                misses += int(shard.last_stats.get("cache_misses", 0))
        return {"queue_depth": queue_depth,
                "coalescing_ratio": stats.answered
                / max(stats.dispatch_batches, 1),
                "cache_hits": hits,
                "cache_misses": misses,
                "refreshes": stats.rolling_refreshes}

    # ---------------------------------------------------------------- control
    def _control(self, shard: _Shard, verb: str, payload: tuple = (),
                 direct: bool = False) -> Future:
        """Allocate an op id and issue one control op to a shard.

        The op rides the shard's outbox, FIFO with dispatches — or, with
        ``direct``, is registered and sent to the worker at once (a
        rolling refresh's barrier, issued while the sender is paused).
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError("sharded service is closed")
            self._next_op_id += 1
            op = _ControlOp(verb=verb, op_id=self._next_op_id,
                            future=Future(), payload=payload)
            if not direct:
                # Appended under the core lock, like admitted requests,
                # so the op cannot land behind close()'s shutdown.
                with shard.cv:
                    shard.outbox.append(op)
                    shard.cv.notify_all()
        if direct:
            self._send_control(shard, op)
        return op.future

    def observe(self, subject: str, measurements: Sequence,
                block: bool = True, timeout: float | None = None):
        """Stream new measurements into a subject's shard-resident model.

        The shard's registry decides what to do with them: relearn
        immediately (no ``drift_threshold``) or buffer them until the
        drift detector fires (see :meth:`ModelRegistry.observe
        <repro.service.registry.ModelRegistry.observe>`).  The batch is
        journaled parent-side first, so a worker crash replays it and
        the respawned replica reconverges to the same model state.  A
        batch holding a NaN or infinite value is refused before it is
        journaled, so a crash can never replay it.

        Parameters
        ----------
        subject:
            A subject this service routes.
        measurements:
            New :class:`~repro.systems.base.Measurement` objects.
        block:
            Wait for the worker's acknowledgement and return the entry
            version (``True``, default), or return a :class:`Future`
            resolving to it.
        timeout:
            Seconds to wait when blocking.

        Raises
        ------
        InvalidMeasurementError
            If any measurement holds a NaN or infinite value; nothing is
            journaled or sent.
        UnknownSubjectError
            If no shard serves ``subject``.
        """
        index = self._subject_shard.get(subject)
        if index is None:
            raise UnknownSubjectError(f"unknown subject {subject!r}")
        shard = self._shards[index]
        measurements = list(measurements)
        _require_finite(subject, measurements)
        future = self._control(shard, "observe", (subject, measurements))
        if block:
            return future.result(timeout=timeout)
        return future

    def quiesce(self, timeout: float | None = 60.0) -> None:
        """Barrier: wait until every healthy shard has processed all
        prior work.

        Because each shard's outbox and command queue are FIFO, the reply
        to a quiesce op proves every dispatch and observe submitted
        before it has been answered — and the worker joins its
        registry's background drift refreshes before replying.  Call
        between observation and query phases to make an asynchronously
        refreshing service deterministic.

        A permanently *failed* shard is skipped (its work was already
        settled with errors when it failed): one dead shard must not
        turn the whole fleet's barrier into an exception while the
        healthy N-1 shards are still serving.  Only a closed *service*
        raises :class:`ServiceClosedError`.
        """
        self._broadcast("quiesce", timeout)

    def worker_stats(self, timeout: float | None = 60.0) -> list[dict]:
        """Fetch each worker's serving counters (one dict per shard).

        A permanently failed shard reports ``{"shard": i, "failed":
        True}`` instead of poisoning the whole call — monitoring keeps
        seeing the healthy N-1 shards.  Only a closed *service* raises
        :class:`ServiceClosedError`.
        """
        payloads = self._broadcast("stats", timeout)
        for shard, payload in zip(self._shards, payloads):
            if payload is not None:
                shard.last_stats = payload  # feeds metrics_snapshot()
        return [{"failed": True, "shard": shard.index} if payload is None
                else payload
                for shard, payload in zip(self._shards, payloads)]

    def _broadcast(self, verb: str, timeout: float | None) -> list:
        """Issue one control op to every shard; replies in shard order.

        A permanently failed shard — skipped up front, or failing
        between enqueue and reply — yields ``None`` instead of raising,
        so one dead shard cannot poison a fleet-wide barrier or probe.
        Only a closed *service* raises :class:`ServiceClosedError`.
        """
        futures = [None if shard.failed else self._control(shard, verb)
                   for shard in self._shards]
        replies = []
        for future in futures:
            try:
                replies.append(None if future is None
                               else future.result(timeout=timeout))
            except ServiceClosedError:
                if self._closed:
                    raise
                replies.append(None)
        return replies

    def flush(self, timeout: float | None = 60.0) -> int:
        """Make every shard's registry durable; returns snapshots written.

        Rides each healthy shard's FIFO outbox like :meth:`quiesce`, so
        it is a barrier *and* a durability point: when it returns, every
        previously submitted command has been processed and every
        worker-resident entry that advanced past its last snapshot has
        published to the model store (no-op without a ``store_path``).
        Each acknowledgement carries the worker's per-subject snapshot
        watermarks and the parent compacts its crash-replay journal up
        to them — this is how journals of *quiet* subjects (no further
        live observes to carry a watermark) finally shrink.
        """
        return sum(int(published) for published
                   in self._broadcast("flush", timeout)
                   if published is not None)

    def _stop(self, timeout: float | None) -> list[_Pending]:
        """Stop every worker behind its admitted work; return the rest.

        The shutdown op queues behind each shard's outstanding
        dispatches and observes, so they are processed before the worker
        exits.  Whatever still has no answer afterwards — e.g. a worker
        that died and could not be respawned in time — is returned for
        close-time settlement.
        """
        for shard in self._shards:
            op = _ControlOp(verb="shutdown", op_id=0)
            with shard.cv:
                # A sender paused by an in-flight rolling refresh must
                # still drain the shutdown; the refresh itself aborts at
                # its next closed-service check.
                shard.paused = False
                shard.outbox.append(op)
                shard.cv.notify_all()
        deadline = None if timeout is None else time.monotonic() + timeout
        for shard in self._shards:
            for thread in (shard.sender, shard.reader):
                if thread is None:
                    continue
                remaining = (None if deadline is None
                             else max(deadline - time.monotonic(), 0.01))
                thread.join(timeout=remaining)
        leftovers = []
        for shard in self._shards:
            if shard.runner is not None and not shard.alive() \
                    and self.use_processes:
                shard.runner.join(timeout=1.0)
            leftovers.extend(self._take_unanswered(shard))
        return leftovers

    def _take_unanswered(self, shard: _Shard) -> list[_Pending]:
        """Empty a shard's tracking: fail its control ops with
        :class:`ServiceClosedError` and return its unanswered requests."""
        with shard.cv:
            items = list(shard.outbox)
            shard.outbox.clear()
        with shard.lock:
            for pendings in shard.inflight.values():
                items.extend(pendings)
            shard.inflight.clear()
            items.extend(shard.control.values())
            shard.control.clear()
        return self._fail_ops(
            items, "service closed before the operation completed")

    @staticmethod
    def _fail_ops(items: list, message: str) -> list[_Pending]:
        """Fail the control ops among ``items``; return the requests."""
        pendings = []
        for item in items:
            if isinstance(item, _Pending):
                pendings.append(item)
            elif item.future is not None and not item.future.done():
                item.future.set_exception(ServiceClosedError(message))
        return pendings

    def _traces(self, shard: _Shard,
                pendings: list[_Pending]) -> list | None:
        """Claim a round's trace contexts, stamped with the shard."""
        if not self.tracer.enabled:
            return None
        traces = self.tracer.claim_round([p.request for p in pendings])
        for trace in traces:
            if trace is not None:
                trace.shard = shard.index
        return traces

    # ----------------------------------------------------------------- sender
    def _sender_loop(self, shard: _Shard) -> None:
        """Per-shard sender: wait, window, drain the outbox, send batches."""
        while True:
            with shard.cv:
                while not shard.outbox or shard.paused:
                    shard.cv.wait()
            if self.batch_window > 0:
                time.sleep(self.batch_window)
            with shard.cv:
                drained = list(shard.outbox)
                shard.outbox.clear()
            if self._flush(shard, drained):
                return

    def _flush(self, shard: _Shard, drained: list) -> bool:
        """Send one drained outbox run, preserving order.

        Contiguous runs of requests become single dispatch batches;
        control ops are sent in place between them.  Returns ``True``
        when a shutdown op was sent (the sender then exits).
        """
        if shard.failed:
            # Nothing will ever answer; fail the drained work fast
            # instead of queueing it for a dead worker.
            message = f"shard {shard.index} failed permanently"
            self._settle(self._fail_ops(drained, message), closed=message)
            return any(not isinstance(item, _Pending)
                       and item.verb == "shutdown" for item in drained)
        pending_run: list[_Pending] = []
        for position, item in enumerate(drained):
            if isinstance(item, _Pending):
                pending_run.append(item)
                continue
            self._send_dispatch(shard, pending_run)
            pending_run = []
            if item.verb == "shutdown":
                with shard.lock:
                    shard.command_queue.put(("shutdown",))
                # Anything drained behind the shutdown goes back on the
                # outbox, where close-time settlement fails it instead
                # of dropping it unresolved.
                with shard.cv:
                    shard.outbox.extendleft(reversed(drained[position + 1:]))
                return True
            if item.verb == "pause":
                # The rolling-refresh barrier: everything enqueued before
                # this op has been sent (the worker will drain it in
                # order); everything after it returns to the outbox front
                # and waits out the pause.  Resolving the future tells
                # the refresh thread the send-side is quiet.  A cancelled
                # future marks a pause whose refresh already timed out and
                # gave up — honouring it would park the shard with nobody
                # left to unpause it; the check happens under the cv, the
                # same lock the abandoning refresh cancels under.
                with shard.cv:
                    abandoned = (item.future is not None
                                 and item.future.cancelled())
                    if not abandoned:
                        shard.paused = True
                        shard.outbox.extendleft(
                            reversed(drained[position + 1:]))
                if abandoned:
                    continue
                if item.future is not None and not item.future.done():
                    item.future.set_result(None)
                return False
            self._send_control(shard, item)
        self._send_dispatch(shard, pending_run)
        return False

    def _send_dispatch(self, shard: _Shard,
                       pendings: list[_Pending]) -> None:
        if not pendings:
            return
        with self._lock:
            self._next_batch_id += 1
            batch_id = self._next_batch_id
            self.stats.dispatch_batches += 1
        with shard.lock:
            shard.inflight[batch_id] = pendings
            shard.requeue_counts[batch_id] = 0
            shard.command_queue.put(
                ("dispatch", batch_id, [p.request for p in pendings]))

    def _send_control(self, shard: _Shard, op: _ControlOp) -> None:
        with shard.lock:
            if op.verb == "crash":  # fault injection: no reply, no tracking
                shard.command_queue.put(("crash",))
                return
            shard.control[op.op_id] = op
            if op.verb == "observe":
                subject, measurements = op.payload
                shard.journal.append((op.op_id, subject, measurements))
                shard.command_queue.put(
                    ("observe", op.op_id, subject, measurements))
            else:
                shard.command_queue.put((op.verb, op.op_id))

    def _inject_crash(self, shard_index: int) -> None:
        """Fault-injection hook (tests): make one worker die abruptly.

        The crash command rides the shard's FIFO outbox, so work enqueued
        before it is processed first and work enqueued after it lands on
        the dead worker — exactly the window the liveness monitor's
        respawn-and-requeue path exists for.
        """
        shard = self._shards[shard_index]
        op = _ControlOp(verb="crash", op_id=-1, future=None)
        with shard.cv:
            shard.outbox.append(op)
            shard.cv.notify_all()

    # ----------------------------------------------------------------- reader
    def _reader_loop(self, shard: _Shard) -> None:
        """Per-shard reader: resolve replies, watch liveness, respawn."""
        while True:
            with shard.lock:
                result_queue = shard.result_queue
                generation = shard.generation
            try:
                message = result_queue.get(timeout=0.1)
            except queue_module.Empty:
                if shard.alive():
                    continue
                if self._closed:
                    return
                if shard.refreshing:
                    # A rolling refresh owns this shard's lifecycle: the
                    # old worker is *expected* to exit and the refresh
                    # thread installs (or rolls back to) the next worker
                    # itself — respawning the old generation here would
                    # fight it.
                    continue
                try:
                    self._respawn(shard)
                except Exception:  # noqa: BLE001 - a shard that cannot be
                    # revived (fit failure, startup timeout) must fail its
                    # clients deterministically, not hang them: flag it
                    # first so routing and the sender reject new work,
                    # then settle everything already tracked.  A respawn
                    # aborted because close() raced it is not a shard
                    # failure — the service is going away; just settle.
                    if not self._closed:
                        shard.failed = True
                    self._settle_closed(self._take_unanswered(shard))
                    return
                continue
            with shard.lock:
                stale = shard.generation != generation
            if stale:
                # A reply from a swapped-out model generation (e.g. the
                # old worker's final "bye" after a rolling refresh, or a
                # late ack queued before the swap).  The drain barrier
                # guarantees nothing of value is in it; resolving it
                # against the new generation's tracking would mis-settle
                # fresh work, so it is discarded.
                continue
            verb = message[0]
            if verb == "bye":
                return
            if verb == "answers":
                self._resolve_answers(shard, message[1], message[2])
            elif verb == "done":
                self._resolve_control(shard, *message[1:])
            elif verb == "failed":
                self._resolve_control(shard, message[1], None, {},
                                      error=RuntimeError(message[2]))
            # "fitted" acks from a respawn race are ignorable noise.

    def _resolve_answers(self, shard: _Shard, batch_id: int,
                         responses: list[QueryResponse]) -> None:
        with shard.lock:
            pendings = shard.inflight.pop(batch_id, None)
            shard.requeue_counts.pop(batch_id, None)
        if pendings is None:  # duplicate after a crash-requeue race
            return

        def tally(stats: ShardedServiceStats, answered: int) -> None:
            per_shard = stats.per_shard_answered
            per_shard[shard.index] = per_shard.get(shard.index, 0) + answered

        self._settle(pendings, responses,
                     traces=self._traces(shard, pendings), tally=tally)

    def _resolve_control(self, shard: _Shard, op_id: int, value,
                         watermarks: Mapping[str, int],
                         error: BaseException | None = None) -> None:
        """Compact the journal from one control reply, then settle its op.

        ``watermarks`` maps subjects to the op id their durable snapshot
        reaches: every journal entry of that subject at or below it is
        folded into a snapshot the worker can reload, so it is dropped.
        Compaction happens *before* the caller's future resolves (a
        client that has seen the ack can rely on it), and for untracked
        replies too — journal-replay acks and the respawn barrier — which
        is safe because a watermark only ever covers ops inside a durable
        snapshot.  Barrier replies carry the full map, so subjects that
        went quiet (no further observe acks) still shrink.
        """
        with shard.lock:
            op = shard.control.pop(op_id, None)
            kept = [entry for entry in shard.journal
                    if entry[0] > watermarks.get(entry[1], 0)]
            dropped = len(shard.journal) - len(kept)
            if dropped:
                shard.journal = kept
                with self._lock:
                    self.stats.journal_ops_compacted += dropped
        if op is None or op.future is None or op.future.done():
            return
        if error is None:
            op.future.set_result(value)
        else:
            op.future.set_exception(error)

    # ---------------------------------------------------------------- respawn
    def _respawn(self, shard: _Shard) -> None:
        """Replace a dead worker and deterministically restore its state.

        Runs on the shard's reader thread: start a fresh worker on fresh
        queues and restore the shard's subjects — loaded from the model
        store's latest snapshots when one is configured (the fast path:
        no refit), fitted from specs otherwise — then replay the
        observation journal in order.  With a store the journal has been
        compacted up to each subject's snapshot watermark, so this
        replays only the *suffix* past the restored snapshots, and the
        worker's ``applied_op_id`` guard skips any entry the snapshot
        already covers (the watermark may run ahead of the last
        compaction by one acknowledgement).  Either way the replica
        reconverges to the exact pre-crash model state, including the
        drift detector's refresh schedule.  Finally the in-flight
        dispatch batches are requeued — each at most ``max_requeues``
        times, after which their futures resolve with error responses so
        a poison batch cannot respawn-loop the shard forever.
        """
        if self._closed:
            # close() raced the liveness monitor: a respawn would refit
            # under the full start_timeout on a service that is being
            # torn down — abort early; the reader settles what remains.
            raise ServiceClosedError(
                f"service closed; shard {shard.index} will not respawn")
        with self._lock:
            self.stats.respawns += 1
        exhausted: list[tuple[int, list[_Pending]]] = []
        # One critical section for restart + replay + requeue: the sender
        # cannot interleave a fresh command between the refit and the
        # journal replay, which would reorder the observation stream the
        # replica's recovered state depends on.
        with shard.lock:
            shard.command_queue, shard.result_queue, shard.runner = \
                self._launch(shard.index, shard.subjects, "fit")
            for op_id, subject, measurements in shard.journal:
                shard.command_queue.put(
                    ("observe", op_id, subject, measurements))
            if shard.journal:
                # Barrier (untracked op 0): any refresh the replay
                # re-triggers must land before the requeued batches are
                # answered, so they see the same model state the dead
                # worker had reached.
                shard.command_queue.put(("quiesce", 0))
            for batch_id, pendings in list(shard.inflight.items()):
                shard.requeue_counts[batch_id] = \
                    shard.requeue_counts.get(batch_id, 0) + 1
                if shard.requeue_counts[batch_id] > self.max_requeues:
                    shard.inflight.pop(batch_id, None)
                    shard.requeue_counts.pop(batch_id, None)
                    exhausted.append((batch_id, pendings))
                    continue
                with self._lock:
                    self.stats.requeues += 1
                shard.command_queue.put(
                    ("dispatch", batch_id,
                     [p.request for p in pendings]))
            # Pending *non-observe* control ops (a quiesce, stats probe
            # or flush the dead worker swallowed) are re-sent too, in op
            # order — journaled observes already went back with the
            # replay above, but without this a caller blocked on a
            # barrier future would hang forever (and a rolling refresh
            # whose drain the crash interrupted could never finish).
            for op_id in sorted(shard.control):
                op = shard.control[op_id]
                if op.verb != "observe":
                    shard.command_queue.put((op.verb, op_id))
        for batch_id, pendings in exhausted:
            error = (f"batch {batch_id} requeued more than "
                     f"{self.max_requeues} times across worker crashes")
            self._settle(pendings, [QueryResponse(
                request=p.request, subject=p.request.subject,
                model_version=-1, value=None, error=error)
                for p in pendings],
                synthesized=True, traces=self._traces(shard, pendings))

    # -------------------------------------------------------- rolling refresh
    def rolling_refresh(self, new_specs: Mapping[str, Mapping],
                        drain_timeout: float | None = 120.0) -> list[dict]:
        """Upgrade the fleet onto new subject specs, one shard at a time.

        For each shard in turn: the sender is parked behind a ``pause``
        barrier (submissions keep queueing on the outbox), the worker
        drains everything already handed to it and flushes its registry
        to the model store (durable snapshots + acknowledged watermarks,
        which also compact the shard's crash-replay journal), a
        *replacement* worker is fitted fresh on the new specs
        (make-before-break: the old worker keeps its state until the new
        one is ready), and the queues are swapped atomically under a
        bumped generation tag — the old worker's final replies are
        discarded as stale instead of mis-resolved.  The other N-1
        shards serve continuously throughout; queries to the refreshing
        shard queue and are answered by the new generation, so the
        upgrade costs latency on one shard at a time, never availability
        or admissions.

        An upgraded subject serves exactly the model a cold fleet fitted
        directly on its new spec would (version 0, fresh fit — the store
        is never *read* for an upgrade), so post-refresh answers are
        byte-identical to that cold fleet's.  The pre-upgrade state
        stays in the store under the old ``(subject, spec)`` keys.

        If any shard's new generation fails to fit (bad spec, dead
        worker, timeout), that shard keeps serving its current
        generation, the failed generation's store publishes are rolled
        back (:meth:`ModelStore.rollback` to the recorded prior version,
        or discarded for brand-new keys), every shard upgraded earlier
        in the sweep is downgraded the same way — its worker restored
        from the flushed pre-upgrade snapshots, byte-identically — and
        :class:`RollingRefreshError` is raised.

        Parameters
        ----------
        new_specs:
            ``subject -> spec`` for **every** routed subject (subjects
            cannot be added or removed mid-flight; routing is fixed at
            construction).  Unchanged specs are refitted fresh too — the
            whole fleet lands on one generation.
        drain_timeout:
            Seconds to wait for each shard's pause and flush barriers;
            the new generation's fits use ``start_timeout`` as usual.

        Returns
        -------
        list of dict
            One ``{"shard", "subjects", "started", "finished"}`` record
            per shard in upgrade order — ``time.monotonic`` bounds of
            the window in which that shard was the one refreshing (the
            capacity gate of the rolling-refresh benchmark checks these
            windows never overlap).

        Raises
        ------
        ValueError
            If no ``store_path`` is configured (the drain state must be
            flushed somewhere durable and rollback needs snapshots), or
            ``new_specs`` does not cover exactly the routed subjects.
        RollingRefreshError
            If an upgrade failed; the fleet serves the old generation.
        ServiceClosedError
            If the service is closed.
        """
        if self.store_path is None:
            raise ValueError(
                "rolling_refresh needs a persistent model store "
                "(store_path=...): each shard's pre-upgrade state is "
                "flushed to it and failed upgrades roll back from it")
        new_specs = {str(subject): dict(spec)
                     for subject, spec in new_specs.items()}
        if set(new_specs) != set(self._subject_shard):
            raise ValueError(
                "new_specs must cover exactly the routed subjects; "
                f"missing {sorted(set(self._subject_shard) - set(new_specs))},"
                f" unknown {sorted(set(new_specs) - set(self._subject_shard))}")
        with self._refresh_lock:
            if self._closed:
                raise ServiceClosedError("sharded service is closed")
            for shard in self._shards:
                if shard.failed:
                    raise RollingRefreshError(
                        f"shard {shard.index} failed permanently; it "
                        "cannot be drained for a rolling refresh")
            old_specs = {
                shard.index: {subject: dict(spec) for subject, spec
                              in shard.subjects.items()}
                for shard in self._shards}
            upgraded: list[tuple[_Shard, dict]] = []
            windows: list[dict] = []
            shard = self._shards[0]
            try:
                for shard in self._shards:
                    started = time.monotonic()
                    prior = self._refresh_shard(
                        shard,
                        {subject: new_specs[subject]
                         for subject in shard.subjects},
                        drain_timeout=drain_timeout)
                    upgraded.append((shard, prior))
                    windows.append({"shard": shard.index,
                                    "subjects": sorted(shard.subjects),
                                    "started": started,
                                    "finished": time.monotonic()})
            except BaseException as exc:
                rolled_back = self._rollback_upgraded(
                    upgraded, old_specs, drain_timeout)
                raise RollingRefreshError(
                    f"rolling refresh failed at shard {shard.index} "
                    f"({exc}); {rolled_back} of {len(upgraded)} "
                    "previously upgraded shard(s) rolled back to the "
                    "prior generation") from exc
            with self._lock:
                self.stats.rolling_refreshes += 1
            return windows

    def _rollback_upgraded(self, upgraded: list, old_specs: dict,
                           drain_timeout: float | None) -> int:
        """Downgrade already-upgraded shards after a failed sweep.

        Reverse upgrade order; each shard's published new-generation
        store keys are rolled back and its worker is replaced by one
        *restored* from the old keys' flushed snapshots (``fit``, not
        ``upgrade`` — restoring IS the point: the pre-refresh model
        state comes back byte-identically, folded observations
        included).  A shard whose downgrade itself fails keeps serving
        the new generation rather than being killed — a mixed-generation
        fleet beats a dead shard; the count of successful downgrades is
        returned and surfaced in the :class:`RollingRefreshError`.
        """
        rolled_back = 0
        for shard, prior in reversed(upgraded):
            if self._closed:
                break
            try:
                self._refresh_shard(shard, old_specs[shard.index],
                                    drain_timeout=drain_timeout,
                                    restore=prior)
            except Exception:  # noqa: BLE001 - keep downgrading the rest
                continue
            rolled_back += 1
            with self._lock:
                self.stats.refresh_rollbacks += 1
        return rolled_back

    def _refresh_shard(self, shard: _Shard, subjects: Mapping[str, Mapping],
                       *, drain_timeout: float | None,
                       restore: dict | None = None) -> dict:
        """Drain one shard and swap its worker onto ``subjects``.

        The make-before-break unit both directions share — *upgrade*
        (``restore=None``: fresh ``upgrade`` fits, record prior store
        versions, roll them back on failure) and *downgrade*
        (``restore={key: prior_version_or_None}``: flip the store back
        first, then ``fit`` so the worker restores the pre-upgrade
        snapshots).  Returns the prior-version map an upgrade recorded
        (empty for downgrades).  On failure the shard's current worker
        is left serving untouched and the half-built replacement is
        killed.
        """
        subjects = {str(subject): dict(spec)
                    for subject, spec in subjects.items()}
        # 1. Park the sender behind the FIFO barrier: everything enqueued
        # before the pause has been handed to the worker when it resolves;
        # everything after waits on the outbox.
        pause = self._control(shard, "pause")
        try:
            pause.result(timeout=drain_timeout)
        except TimeoutError:
            with shard.cv:
                # Cancel under the cv so a late-draining sender sees the
                # abandoned op and skips it instead of parking forever.
                pause.cancel()
                shard.paused = False
                shard.cv.notify_all()
            raise TimeoutError(
                f"shard {shard.index} sender did not reach the pause "
                f"barrier within {drain_timeout}s") from None
        try:
            # 2. Drain + durability point.  The worker answers the
            # barrier only after every previously sent dispatch/observe;
            # "flush" additionally publishes every advanced entry and
            # compacts the journal from the acknowledged watermarks.  A
            # worker crash mid-drain is survivable: the liveness monitor
            # respawns it (``refreshing`` is still False) and re-sends
            # this very barrier op along with the journal replay.
            barrier = self._control(
                shard, "quiesce" if restore is not None else "flush",
                direct=True)
            barrier.result(timeout=drain_timeout)
            shard.refreshing = True
            prior: dict[str, int | None] = {}
            store = ModelStore(self.store_path)
            if restore is not None:
                # Store pointers first: the restored worker must load the
                # *pre-upgrade* snapshots, so any key the failed sweep
                # republished flips back (or vanishes) before the fits.
                _roll_store_back(store, restore)
            else:
                for subject, spec in subjects.items():
                    key = subject_key(subject, spec)
                    prior[key] = store.latest_version(key)
            # 3. Make before break: fit the replacement on private queues
            # while the old worker keeps its (flushed) state.
            try:
                command_queue, result_queue, runner = self._launch(
                    shard.index, subjects,
                    "fit" if restore is not None else "upgrade")
            except BaseException:
                _roll_store_back(store, prior)
                raise
            # 4. Atomic swap under the shard lock: new generation in, old
            # worker's journal out (its entries must never replay into
            # the new model), shutdown to the old command queue.  The
            # bumped generation makes the old worker's final replies
            # (its "bye") stale noise to the reader.
            with shard.lock:
                old_command = shard.command_queue
                old_runner = shard.runner
                shard.command_queue = command_queue
                shard.result_queue = result_queue
                shard.runner = runner
                shard.generation += 1
                shard.subjects = subjects
                shard.journal.clear()
                old_command.put(("shutdown",))
            if self.use_processes and old_runner is not None:
                old_runner.join(timeout=10.0)
            return prior
        finally:
            # 5. Re-admit: whatever queued during the swap flows to the
            # current worker — the new generation on success, the intact
            # old one on failure.
            shard.refreshing = False
            with shard.cv:
                shard.paused = False
                shard.cv.notify_all()
