"""The shard worker: one registry + batcher behind a spawn-safe IPC loop.

Each shard of a :class:`~repro.service.sharding.ShardedQueryService` is an
independent replica of the single-process serving stack: a
:class:`~repro.service.registry.ModelRegistry` holding the shard's fitted
subject models and a :class:`~repro.service.batcher.RequestBatcher`
coalescing drained requests into batched engine calls.  The
:class:`ShardServer` here is the worker's event loop — a plain
command/reply protocol over a pair of queues, with every message a
picklable tuple, so the same loop runs

* in a **worker process** (the production mode; the parent talks to it
  over ``multiprocessing`` queues, entered through the module-level
  :func:`run_shard_server` so the ``spawn`` start method can import it),
  and
* in a **worker thread** (the in-process mode used by tests and
  single-core environments; identical code path, identical pickled
  messages, no process boundary).

The command protocol (first tuple element is the verb)::

    ("fit", subject, spec)            -> ("fitted", subject, n_measurements,
                                          applied_op_id)
    ("upgrade", subject, spec)        -> same reply shape as "fit", but the
                                         model is always fitted fresh from
                                         the spec (never restored from the
                                         store) — the rolling-refresh path
    ("dispatch", batch_id, requests)  -> ("answers", batch_id, responses)
    ("observe", op_id, subject, ms)   -> ("done", op_id, version,
                                          {subject: snapshot_op})
    ("quiesce", op_id)                -> ("done", op_id, None,
                                          {subject: snapshot_op})
    ("flush", op_id)                  -> ("done", op_id, n_published,
                                          {subject: snapshot_op}) after
                                         registry.flush() made every entry
                                         durable
    ("stats", op_id)                  -> ("done", op_id, payload, {})
    ("crash",)                        -> no reply; the worker dies abruptly
    ("shutdown",)                     -> ("bye",) after flushing final
                                         snapshots, then the loop returns

Every control op (``observe``, ``quiesce``, ``flush``, ``stats``) answers
one shape, ``("done", op_id, value, watermarks)``, or ``("failed", op_id,
message)`` when its handler raised.  ``watermarks`` maps each covered
subject to the op id its durable snapshot reaches, so the parent can
compact its crash-replay journal from any reply — including the barriers
of subjects that went quiet (no further live observes to ride a watermark
on).

Failures are replies, not silence: a fit error answers ``("fit_error",
subject, message)``, a control-op error ``("failed", op_id, message)``
and an unknown verb ``("protocol_error", message)``; per-request engine
errors ride inside the :class:`~repro.service.requests.QueryResponse`
objects as usual.  The only command without a reply is ``crash`` — the
fault-injection hook the worker-crash requeue tests use to simulate a
dying worker.

Because commands are handled strictly in arrival order by one loop, a
``quiesce`` reply doubles as a barrier: every dispatch and observe sent
before it has been fully processed (including joining any background
drift refreshes) by the time the reply arrives.
"""

from __future__ import annotations

import os
from typing import Mapping

from repro.service.batcher import RequestBatcher
from repro.service.registry import ModelRegistry
from repro.service.requests import QueryRequest, QueryResponse


class InjectedCrash(BaseException):
    """Raised by the ``crash`` command to kill a worker abruptly.

    Derives from :class:`BaseException` so no defensive ``except
    Exception`` in the loop can swallow the simulated fault.
    """


class ShardServer:
    """The event loop of one shard worker.

    Parameters
    ----------
    shard_index:
        Position of this shard in the service's shard list (stamped on
        stats payloads for observability).
    commands, results:
        The inbound command queue and outbound reply queue.  Any object
        with blocking ``get()`` / ``put()`` works; the sharded service
        passes ``multiprocessing`` queues.
    registry_options:
        Keyword arguments for this worker's private
        :class:`ModelRegistry` (the sharded service forwards
        ``drift_threshold``, ``drift_min_window``, ``refresh_async``,
        ``result_cache_size``, ``store`` — passed as a path string so it
        pickles across the process boundary — and ``snapshot_every``).
    """

    def __init__(self, shard_index: int, commands, results,
                 registry_options: Mapping[str, object] | None = None)\
            -> None:
        self.shard_index = int(shard_index)
        self.commands = commands
        self.results = results
        self.registry = ModelRegistry(**dict(registry_options or {}))
        self.batcher = RequestBatcher()
        self.dispatches = 0
        self._dispatch_index = 0

    # ------------------------------------------------------------------ loop
    def run(self) -> None:
        """Serve commands until ``shutdown`` (or an injected crash)."""
        while True:
            command = self.commands.get()
            verb = command[0]
            if verb == "shutdown":
                # Graceful shutdown makes the store fully durable: fold
                # any buffered observations and snapshot every entry that
                # advanced past its last publish, so the next service
                # generation cold-starts byte-identical with no journal.
                self.registry.flush()
                self.results.put(("bye",))
                return
            if verb == "crash":
                raise InjectedCrash(
                    f"shard {self.shard_index} crash injected")
            if verb in ("fit", "upgrade"):
                self._handle_fit(command[1], command[2],
                                 fresh=verb == "upgrade")
            elif verb == "dispatch":
                self.dispatches += 1
                self.results.put(("answers", command[1],
                                  self.answer(list(command[2]))))
            elif verb in ("observe", "quiesce", "flush", "stats"):
                try:
                    value, watermarks = self._control(verb, *command[1:])
                except Exception as exc:  # noqa: BLE001 - reply, don't die
                    self.results.put(("failed", command[1], str(exc)))
                else:
                    self.results.put(("done", command[1], value,
                                      watermarks))
            else:
                self.results.put(("protocol_error",
                                  f"unknown verb {verb!r}"))

    # -------------------------------------------------------------- handlers
    def _handle_fit(self, subject: str, spec: Mapping[str, object],
                    fresh: bool = False) -> None:
        try:
            if fresh:
                entry = self.registry.upgrade_spec(subject, spec)
            else:
                entry = self.registry.register_spec(subject, spec)
            # The restored watermark rides on the ack: a parent starting a
            # fresh service over an already-populated store advances its
            # op-id counter past it, so new observes are never mistaken
            # for replays of a previous service generation.
            self.results.put(("fitted", subject, entry.n_measurements,
                              entry.applied_op_id))
        except Exception as exc:  # noqa: BLE001 - reply, don't die
            self.results.put(("fit_error", subject, str(exc)))

    def _control(self, verb: str, op_id: int, *args) -> tuple:
        """Run one control op; returns its ``(value, watermarks)`` pair."""
        if verb == "observe":
            subject, measurements = args
            version = self.registry.observe(subject, measurements,
                                            op_id=op_id)
            # With asynchronous refreshes the watermark can lag the op
            # that triggered the snapshot by one reply — compaction then
            # simply catches up on the next reply.
            return version, {
                subject: self.registry.snapshot_watermark(subject)}
        if verb == "stats":
            return self.stats(), {}
        self.registry.quiesce()
        published = None
        if verb == "flush":
            # Drain barrier + durability point: every entry's buffered
            # observations fold and publish, so after the reply the store
            # alone reproduces this worker's model state (the hand-off a
            # rolling refresh restores or rolls back from).
            published = self.registry.flush()
        return published, self.registry.snapshot_watermarks()

    # ------------------------------------------------------------- answering
    def answer(self, requests: list[QueryRequest]) -> list[QueryResponse]:
        """Answer one drained batch, one batcher call per subject group.

        Requests are grouped by subject in arrival order (the same move
        :class:`~repro.service.service.QueryService` makes when draining
        its queues) and each group goes through
        :meth:`RequestBatcher.answer
        <repro.service.batcher.RequestBatcher.answer>`, which turns a
        subject-level failure into per-request error responses; the
        responses come back aligned with ``requests``.
        """
        by_subject: dict[str, list[int]] = {}
        for i, request in enumerate(requests):
            by_subject.setdefault(request.subject, []).append(i)
        responses: list = [None] * len(requests)
        for subject, indices in by_subject.items():
            self._dispatch_index += 1
            answered = self.batcher.answer(
                self.registry, subject, [requests[i] for i in indices],
                self._dispatch_index)
            for i, response in zip(indices, answered):
                responses[i] = response
        return responses

    def stats(self) -> dict:
        """JSON-friendly snapshot of this worker's serving counters."""
        drift = {}
        for subject in self.registry.subjects():
            entry = self.registry.get(subject)
            if entry.drift is not None:
                drift[subject] = entry.drift.state()
        return {"shard": self.shard_index,
                "subjects": self.registry.subjects(),
                "dispatches": self.dispatches,
                "engine_calls": self.batcher.calls,
                "answered": self.batcher.answered,
                "cache_hits": self.batcher.cache_hits,
                "cache_misses": self.batcher.cache_misses,
                "refreshes": self.registry.refreshes,
                "refreshes_skipped": self.registry.refreshes_skipped,
                "store_loads": self.registry.store_loads,
                "store_publishes": self.registry.store_publishes,
                "evicted_with_pending": self.registry.evicted_with_pending,
                "drift": drift}


def run_shard_server(shard_index: int, commands, results,
                     registry_options: Mapping[str, object] | None = None)\
        -> None:
    """Process entry point: run a :class:`ShardServer` until shutdown.

    Module-level (and all-picklable-arguments) so it works under both the
    ``fork`` and ``spawn`` multiprocessing start methods.  An injected
    crash exits the process abruptly with a nonzero code — the closest
    in-band analogue of a worker being OOM-killed.
    """
    try:
        ShardServer(shard_index, commands, results, registry_options).run()
    except InjectedCrash:  # pragma: no cover - exercised in a subprocess
        os._exit(13)


def run_shard_thread(shard_index: int, commands, results,
                     registry_options: Mapping[str, object] | None = None)\
        -> None:
    """Thread entry point: like :func:`run_shard_server`, dying quietly.

    An injected crash simply ends the thread without a reply — the
    thread-mode analogue of the process dying — so the parent's liveness
    monitor, requeue and respawn paths are exercised identically in both
    modes.
    """
    try:
        ShardServer(shard_index, commands, results, registry_options).run()
    except InjectedCrash:
        return
