"""Coalescing dispatch of concurrent queries into batched engine calls.

The batched evaluator (PR 3) makes one engine call over N inputs far cheaper
than N calls over one input — but only offline harnesses exploited it.  The
:class:`RequestBatcher` brings that to the serving path: requests drained
from the service queue are grouped by ``(subject, model_version,
group_key)``, deduplicated by item key within each group, and dispatched as
single ``*_batch`` calls:

===============  ====================================================
kind             coalesced engine call
===============  ====================================================
``EFFECT``       one ``interventional_expectations_batch`` per
                 objective (distinct interventions become batch rows)
``PREDICT``      one ``predict_batch`` per objectives-tuple
``ACE``          one ``causal_effects_batch`` sweep per objective
                 (distinct options share one interventional call)
``SATISFACTION`` one ``satisfaction_probability`` per distinct
                 (constraint, intervention) — already vectorized over
                 the observed contexts internally
``REPAIR``       one ``repair_set`` scan per distinct fault — already
                 one batched counterfactual scan internally
===============  ====================================================

**Determinism contract.**  Coalescing never changes an answer: the batched
equations accumulate feature terms elementwise per row
(:meth:`repro.scm.fitting.FittedEquation.predict_batch`), so row ``i`` of an
N-row batch is bitwise equal to the same query dispatched alone, and
deduplicated requests receive the exact value their duplicate computed.
``serial_dispatch`` is the one-at-a-time reference the tests and the
throughput benchmark hold the coalesced path byte-identical to.  The scalar
oracle remains available underneath both paths: a registry entry fitted
with ``use_batched=False`` pins its engine to the scalar reference
semantics, and the batcher works unchanged on top of it.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

from repro.service.registry import ModelEntry, ModelRegistry
from repro.service.requests import (
    QueryRequest,
    QueryResponse,
    ServiceKind,
    repair_payload,
)
from repro.service.result_cache import MISS, fresh_value as _fresh_value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tracing is
    # a leaf module, but keeping the runtime import lazy keeps the
    # batcher importable standalone)
    from repro.service.tracing import TraceContext


class RequestBatcher:
    """Groups, deduplicates and dispatches serving-layer requests.

    When the registry entry carries a
    :class:`~repro.service.result_cache.ResultCache`, both dispatch paths
    consult it per distinct item key at the entry's current model version
    before touching the engine: a hit serves the memoized answer (and
    issues no engine call), a miss evaluates and stores the answer for the
    next batch.  Errors are never cached.  Because cached values were
    computed by an identical engine call against the same model version,
    answers are byte-identical with the cache on or off.
    """

    def __init__(self) -> None:
        #: total engine calls issued / requests answered, for stats.
        self.calls = 0
        self.answered = 0
        #: cross-request result-cache traffic (see the class docstring).
        self.cache_hits = 0
        self.cache_misses = 0

    # -------------------------------------------------------------- dispatch
    def dispatch(self, entry: ModelEntry,
                 requests: Sequence[QueryRequest],
                 dispatch_index: int = 0,
                 traces: "list[TraceContext | None] | None" = None,
                 ) -> list[QueryResponse]:
        """Answer ``requests`` against one registry entry.

        The entry's lock is held for the duration (engine caches are not
        thread-safe); the answers come back aligned with ``requests``.

        Parameters
        ----------
        entry:
            Registry entry whose engine answers the batch; all requests
            must name this entry's subject.
        requests:
            The drained requests (one group key per call is *not* required
            — grouping happens here).
        dispatch_index:
            Sequence number stamped on the responses (drain-order handle).
        traces:
            Optional list of :class:`~repro.service.tracing.TraceContext`
            aligned with ``requests`` — position ``i`` holds the context
            request ``i`` carries from admission (see
            :meth:`~repro.service.tracing.Tracer.open`), or ``None``
            where a request is untraced.  When present the
            batcher fills each context's engine / cache segments,
            cache-hit flag and coalesce group size by list index — no
            per-request lookups.  ``None`` (the default) keeps the hot
            path free of any trace work.

        Returns
        -------
        list of QueryResponse
            One response per request, in request order; failures are
            reported per-response via ``error`` rather than raised.
        """
        with entry.lock:
            return self._coalesced(entry, list(requests), dispatch_index,
                                   traces=traces)

    def answer(self, registry: ModelRegistry, subject: str,
               requests: Sequence[QueryRequest], dispatch_index: int,
               traces: "list[TraceContext | None] | None" = None,
               ) -> list[QueryResponse]:
        """Answer one subject's drained requests; never raises.

        The per-subject step both serving tiers share: look the subject
        up in ``registry`` and :meth:`dispatch` against its entry.  A
        subject-level failure (unknown subject, dead engine) becomes one
        error response per request instead of an exception that would
        take the other subjects of the round down with it, and a short
        reply is padded with error responses so no request is left
        without one.  The answers come back aligned with ``requests``.
        """
        try:
            responses = self.dispatch(registry.get(subject), requests,
                                      dispatch_index=dispatch_index,
                                      traces=traces)
            error = "batcher returned too few responses"
        except Exception as exc:  # noqa: BLE001 - isolate subjects
            responses, error = [], str(exc)
        for request in requests[len(responses):]:
            responses.append(QueryResponse(
                request=request, subject=subject, model_version=-1,
                value=None, dispatch_index=dispatch_index, error=error))
        return responses

    def serial_dispatch(self, entry: ModelEntry,
                        requests: Sequence[QueryRequest]
                        ) -> list[QueryResponse]:
        """One-at-a-time dispatch: the byte-identical reference path."""
        with entry.lock:
            return self._serial(entry, list(requests))

    # -------------------------------------------------------------- internals
    def _serial(self, entry: ModelEntry,
                requests: list[QueryRequest]) -> list[QueryResponse]:
        cache = entry.result_cache
        responses = []
        for request in requests:
            version = entry.version
            if cache is not None:
                cached = cache.lookup(version, request.item_key_cached())
                if cached is not MISS:
                    self.cache_hits += 1
                    responses.append(QueryResponse(
                        request=request, subject=entry.key,
                        model_version=version, value=cached,
                        batched=False, batch_size=1))
                    self.answered += 1
                    continue
                self.cache_misses += 1
            try:
                value = self._evaluate_one(entry, request)
                if cache is not None:
                    cache.store(version, request.item_key_cached(), value)
                responses.append(QueryResponse(
                    request=request, subject=entry.key,
                    model_version=entry.version, value=value,
                    batched=False, batch_size=1))
            except Exception as exc:  # noqa: BLE001 - per-request isolation
                responses.append(QueryResponse(
                    request=request, subject=entry.key,
                    model_version=entry.version, value=None,
                    batched=False, batch_size=1, error=str(exc)))
            self.calls += 1
            self.answered += 1
        return responses

    def _coalesced(self, entry: ModelEntry, requests: list[QueryRequest],
                   dispatch_index: int,
                   traces: "list[TraceContext | None] | None" = None,
                   ) -> list[QueryResponse]:
        # Group by group_key, preserving request order within each group.
        groups: dict[tuple, list[int]] = {}
        for i, request in enumerate(requests):
            groups.setdefault(request.group_key(), []).append(i)

        cache = entry.result_cache
        responses: list[QueryResponse | None] = [None] * len(requests)
        tracing = traces is not None
        for indices in groups.values():
            # Deduplicate by item key in first-appearance order.
            distinct: dict[tuple, list[int]] = {}
            for i in indices:
                distinct.setdefault(requests[i].item_key_cached(),
                                    []).append(i)
            # Answer what the cache already knows; only the missing item
            # keys go to the engine as one (smaller) batched call.
            version = entry.version
            answers: dict[tuple, tuple[object, str | None, int]] = {}
            misses: list[tuple] = []
            hit_keys: set[tuple] = set()
            cache_elapsed = 0.0
            if cache is not None:
                cache_start = (time.perf_counter()
                               if tracing else 0.0)
                for key in distinct:
                    hit = cache.lookup(version, key)
                    if hit is not MISS:
                        self.cache_hits += 1
                        answers[key] = (hit, None, 1)
                        hit_keys.add(key)
                    else:
                        self.cache_misses += 1
                        misses.append(key)
                if tracing:
                    cache_elapsed = time.perf_counter() - cache_start
            else:
                misses = list(distinct)
            engine_elapsed = 0.0
            if misses:
                leaders = [distinct[key][0] for key in misses]
                batch_size = len(leaders)
                engine_start = (time.perf_counter()
                                if tracing else 0.0)
                try:
                    values = self._evaluate_group(
                        entry, [requests[i] for i in leaders])
                    errors: list[str | None] = [None] * batch_size
                    self.calls += 1
                except Exception:  # noqa: BLE001 - fall back to isolate the
                    # offending request: re-evaluate the group one item at
                    # a time so only the request that actually fails
                    # reports an error.
                    self.calls += 1  # the failed group call was a real call
                    batch_size = 1  # answers now come from singleton calls
                    values, errors = [], []
                    for i in leaders:
                        try:
                            values.append(
                                self._evaluate_one(entry, requests[i]))
                            errors.append(None)
                        except Exception as exc:  # noqa: BLE001
                            values.append(None)
                            errors.append(str(exc))
                        self.calls += 1
                if tracing:
                    engine_elapsed = time.perf_counter() - engine_start
                for key, value, error in zip(misses, values, errors):
                    if cache is not None and error is None:
                        cache.store(version, key, value)
                    answers[key] = (value, error, batch_size)
            for key, fanout in distinct.items():
                value, error, batch_size = answers[key]
                if tracing:
                    for i in fanout:
                        trace = traces[i]
                        if trace is None:
                            continue
                        trace.batched = True
                        trace.coalesce_group_size = batch_size
                        trace.cache_hit = key in hit_keys
                        trace.cache_seconds += cache_elapsed
                        if key not in hit_keys:
                            trace.engine_seconds += engine_elapsed
                for j, i in enumerate(fanout):
                    # Duplicates get their own copy of the (mutable)
                    # answer, matching the serial path where every request
                    # builds an independent object — a client mutating its
                    # response must never change another client's.
                    fanned = value if j == 0 else _fresh_value(value)
                    responses[i] = QueryResponse(
                        request=requests[i], subject=entry.key,
                        model_version=entry.version, value=fanned,
                        batched=True, batch_size=batch_size,
                        dispatch_index=dispatch_index, error=error)
                    self.answered += 1
        # Every request index belongs to exactly one group.
        return [r for r in responses if r is not None]

    def _evaluate_group(self, entry: ModelEntry,
                        leaders: list[QueryRequest]) -> list[object]:
        """One engine call for a deduplicated group (aligned answers)."""
        engine = entry.engine
        kind = leaders[0].kind
        if kind is ServiceKind.EFFECT:
            objective = leaders[0].objective
            values = engine.interventional_expectations_batch(
                objective, [r.intervention_dict() for r in leaders])
            return [float(v) for v in values]
        if kind is ServiceKind.PREDICT:
            objectives = list(leaders[0].objectives)
            return engine.predict_batch(
                [r.configuration_dict() for r in leaders], objectives)
        if kind is ServiceKind.ACE:
            objective = leaders[0].objective
            return engine.causal_effects_batch(
                [r.option for r in leaders], objective)
        # SATISFACTION / REPAIR evaluate per distinct item: the engine call
        # is already internally vectorized (satisfaction scans every
        # observed context, a repair scan scores its whole candidate grid in
        # one counterfactual call); coalescing still collapses duplicate
        # requests to one call.
        return [self._evaluate_one(entry, request) for request in leaders]

    @staticmethod
    def _evaluate_one(entry: ModelEntry, request: QueryRequest) -> object:
        """The singleton engine call for one request (reference semantics)."""
        engine = entry.engine
        kind = request.kind
        if kind is ServiceKind.ACE:
            return float(engine.causal_effect(request.option,
                                              request.objective))
        if kind is ServiceKind.PREDICT:
            return engine.predict_batch([request.configuration_dict()],
                                        list(request.objectives))[0]
        if kind is ServiceKind.EFFECT:
            return float(engine.interventional_expectation(
                request.objective, request.intervention_dict()))
        if kind is ServiceKind.SATISFACTION:
            return float(engine.satisfaction_probability(
                request.constraint(), request.intervention_dict()))
        if kind is ServiceKind.REPAIR:
            repair_set = engine.repair_set(
                dict(request.faulty_configuration),
                dict(request.faulty_measurement),
                request.objectives_dict(),
                max_repairs=request.max_repairs)
            return repair_payload(repair_set)
        raise ValueError(f"unsupported request kind {kind!r}")
