"""Tests of the concurrent query-serving layer.

Covers the four contracts ISSUE 4 demands of `repro.service`:

* **determinism** — N threads submitting mixed queries receive answers
  byte-identical (canonical JSON) to serial one-at-a-time dispatch, on the
  batched engine and on the scalar-oracle engine;
* **registry** — content-hash reuse, LRU eviction, and incremental refresh
  (new observations route through the incremental ``update()`` path and
  bump the entry version without rebuilding the engine);
* **admission control** — the bounded in-flight queue rejects overload
  with :class:`AdmissionError` and recovers once drained, and the drain
  loop round-robins across subjects (per-subject fairness);
* a **hypothesis property test** holding coalesced dispatch byte-identical
  to serial dispatch over random query mixes.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.unicorn import Unicorn, UnicornConfig
from repro.inference.queries import QoSConstraint
from repro.service import (
    AceRequest,
    AdmissionError,
    EffectRequest,
    InvalidMeasurementError,
    ModelRegistry,
    ModelStore,
    PredictRequest,
    QueryService,
    RequestBatcher,
    SatisfactionRequest,
    ServiceClosedError,
    UnknownSubjectError,
    canonical_answers,
    mixed_workload,
)
from repro.systems.cache_example import make_cache_example

SUBJECT = "cache"


def _build_registry(use_batched: bool = True,
                    capacity: int = 4) -> tuple[ModelRegistry, object]:
    system = make_cache_example()
    unicorn = Unicorn(system, UnicornConfig(
        initial_samples=100, budget=400, max_condition_size=2, seed=3,
        batched_queries=use_batched))
    registry = ModelRegistry(capacity=capacity, use_batched=use_batched)
    entry = registry.register(SUBJECT, unicorn)
    return registry, entry


@pytest.fixture(scope="module")
def served():
    """A registry with a fitted cache-example model, plus its workload."""
    registry, entry = _build_registry()
    system = make_cache_example()
    requests = mixed_workload(SUBJECT, entry.engine, system.objectives,
                              60, seed=11, max_repairs=24)
    return registry, entry, requests


_canonical = canonical_answers


# --------------------------------------------------------------- determinism
def test_concurrent_mixed_queries_byte_identical_to_serial(served):
    registry, entry, requests = served
    reference = RequestBatcher().serial_dispatch(entry, requests)
    assert all(r.ok for r in reference)

    responses = [None] * len(requests)
    with QueryService(registry, batch_window=0.002) as service:
        def client(worker: int, per_client: int) -> None:
            lo = worker * per_client
            for i in range(lo, lo + per_client):
                responses[i] = service.submit(requests[i])

        threads = [threading.Thread(target=client, args=(w, 6))
                   for w in range(10)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    assert _canonical(responses) == _canonical(reference)
    # Coalescing actually happened (some drained batch grouped requests).
    assert service.stats.answered == len(requests)
    assert service.stats.engine_calls < len(requests)


def test_service_answers_match_direct_engine_calls(served):
    registry, entry, _ = served
    engine = entry.engine
    effect = EffectRequest.of(SUBJECT, "Throughput", {"CachePolicy": 3.0})
    ace = AceRequest(subject=SUBJECT, option="CachePolicy",
                     objective="Throughput")
    predict = PredictRequest.of(SUBJECT, {"CachePolicy": 0.0,
                                          "WorkingSetSize": 32.0},
                                ("Throughput",))
    with QueryService(registry) as service:
        responses = service.submit_many([effect, ace, predict])
    assert responses[0].value == engine.interventional_expectation(
        "Throughput", {"CachePolicy": 3.0})
    assert responses[1].value == engine.causal_effect("CachePolicy",
                                                      "Throughput")
    assert responses[2].value == engine.predict_batch(
        [{"CachePolicy": 0.0, "WorkingSetSize": 32.0}], ["Throughput"])[0]


def test_scalar_oracle_registry_serves_identically(served):
    """Coalesced == serial holds on the scalar reference engine too."""
    _, batched_entry, requests = served
    registry, entry = _build_registry(use_batched=False)
    batcher = RequestBatcher()
    serial = batcher.serial_dispatch(entry, requests)
    coalesced = batcher.dispatch(entry, requests)
    assert _canonical(coalesced) == _canonical(serial)
    # And the scalar answers agree with the batched registry to 1e-9.
    batched = batcher.dispatch(batched_entry, requests)
    for b, s in zip(batched, serial):
        if isinstance(b.value, float):
            assert b.value == pytest.approx(s.value, rel=1e-9, abs=1e-9)


# ------------------------------------------------------------------ registry
def test_registry_content_hash_reuse_and_lru_eviction():
    registry = ModelRegistry(capacity=2)
    spec_a = {"system": "cache_example", "n_samples": 30,
              "max_condition_size": 2}
    entry_a = registry.get_or_fit(spec_a)
    assert registry.get_or_fit(dict(spec_a)) is entry_a  # content-hash hit
    assert len(registry) == 1 and registry.evictions == 0

    spec_b = {**spec_a, "n_samples": 31}
    spec_c = {**spec_a, "n_samples": 32}
    entry_b = registry.get_or_fit(spec_b)
    # Touch A so B is the least recently used, then overflow.
    registry.get(entry_a.key)
    registry.get_or_fit(spec_c)
    assert registry.evictions == 1
    assert len(registry) == 2
    assert entry_a.key in registry       # A survived (recently used)
    with pytest.raises(UnknownSubjectError):
        registry.get(entry_b.key)        # B was the LRU victim


def test_registry_incremental_refresh_on_new_epochs():
    registry, entry = _build_registry()
    system = entry.unicorn.system
    engine_before = entry.engine
    data_before = engine_before.learned_model.data
    rows_before = entry.n_measurements
    assert entry.version == 0

    rng = np.random.default_rng(5)
    fresh = system.measure_many(system.space.sample_configurations(8, rng),
                                rng=rng)
    version = registry.observe(SUBJECT, fresh)

    assert version == 1 and entry.version == 1
    assert entry.n_measurements == rows_before + 8
    # The incremental path ran: same engine object, refreshed in place,
    # onto new data; the data it answered from before is unchanged.
    assert entry.engine is engine_before
    assert entry.engine.model_version == 1
    assert entry.engine.learned_model.data is not data_before
    assert entry.engine.learned_model.n_samples == data_before.n_rows + 8
    assert data_before.n_rows == rows_before
    assert entry.state.learned.history[-1]["incremental"] == 1.0

    # Responses now carry the new version.
    with QueryService(registry) as service:
        response = service.submit(EffectRequest.of(
            SUBJECT, "Throughput", {"CachePolicy": 0.0}))
    assert response.model_version == 1


def test_adopted_entry_cannot_be_refreshed(served):
    registry, entry, _ = served
    adopted = ModelRegistry(capacity=2)
    adopted.adopt("frozen", entry.engine)
    with QueryService(adopted) as service:
        response = service.submit(EffectRequest.of(
            "frozen", "Throughput", {"CachePolicy": 0.0}))
    assert response.ok
    with pytest.raises(UnknownSubjectError):
        adopted.observe("frozen", [])


# --------------------------------------------------------- admission control
def test_admission_backpressure_rejects_and_recovers(served):
    registry, _, _ = served
    request = EffectRequest.of(SUBJECT, "Throughput", {"CachePolicy": 0.0})
    service = QueryService(registry, max_pending=4, auto_start=False)
    futures = [service.submit_async(request) for _ in range(4)]
    with pytest.raises(AdmissionError):
        service.submit_async(request)
    # submit_many is atomic: a batch that does not fit leaves nothing queued.
    with pytest.raises(AdmissionError):
        service.submit_many([request, request])
    assert service.n_pending == 4
    assert service.stats.rejected == 3

    service.start()
    values = [future.result(timeout=30).value for future in futures]
    assert len(set(values)) == 1  # identical requests, identical answers
    # The queue drained, so admission recovers.
    assert service.submit(request, timeout=30).ok
    service.close()
    with pytest.raises(ServiceClosedError):
        service.submit(request)


def test_cancelled_future_does_not_kill_dispatcher(served):
    registry, _, _ = served
    request = EffectRequest.of(SUBJECT, "Throughput", {"CachePolicy": 3.0})
    service = QueryService(registry, auto_start=False)
    doomed = service.submit_async(request)
    survivor = service.submit_async(request)
    assert doomed.cancel()          # cancelled while still queued
    service.start()
    # The dispatcher skips the cancelled future and resolves the rest.
    assert survivor.result(timeout=30).ok
    assert service.stats.cancelled == 1
    # The service is still alive for new submissions.
    assert service.submit(request, timeout=30).ok
    service.close()


def test_close_resolves_undrainable_futures_with_service_closed(served):
    """Regression (ISSUE 5): close() during an in-flight submit_async must
    resolve the future with a deterministic ServiceClosedError — never
    hang the client, never silently cancel, never leak the queue entry."""
    registry, _, _ = served
    request = EffectRequest.of(SUBJECT, "Throughput", {"CachePolicy": 0.0})
    service = QueryService(registry, auto_start=False)
    orphans = [service.submit_async(request) for _ in range(3)]
    service.close()
    # No dispatcher ever ran; every future resolves with the closed error.
    for orphan in orphans:
        with pytest.raises(ServiceClosedError):
            orphan.result(timeout=5)
    assert service.n_pending == 0
    assert service.stats.closed_errors == 3
    # A future the client had already cancelled stays cancelled (and is
    # counted as such, not as a closed error).
    service = QueryService(registry, auto_start=False)
    cancelled = service.submit_async(request)
    assert cancelled.cancel()
    service.close()
    assert cancelled.cancelled()
    assert service.stats.cancelled == 1 and service.stats.closed_errors == 0


def test_close_with_live_dispatcher_still_answers_admitted_requests(served):
    """The drain promise survives the bugfix: work admitted before close()
    is answered by a running dispatcher, not errored."""
    registry, _, _ = served
    request = EffectRequest.of(SUBJECT, "Throughput", {"CachePolicy": 3.0})
    service = QueryService(registry, batch_window=0.05)
    futures = [service.submit_async(request) for _ in range(6)]
    service.close()  # dispatcher is mid-window with everything still queued
    results = [future.result(timeout=30) for future in futures]
    assert all(response.ok for response in results)
    assert service.stats.closed_errors == 0
    assert service.n_pending == 0


def test_serve_concurrently_propagates_client_errors(served):
    from repro.service import serve_concurrently

    registry, entry, _ = served
    request = EffectRequest.of(SUBJECT, "Throughput", {"CachePolicy": 0.0})
    # Each client's batch of 8 exceeds the whole 4-slot queue, so every
    # submit_many is rejected deterministically — the helper must surface
    # the error instead of returning None holes.
    with QueryService(registry, max_pending=4) as service:
        with pytest.raises(AdmissionError):
            serve_concurrently(service, [request] * 32, 4)
    with pytest.raises(ValueError):
        serve_concurrently(service, [request] * 10, 4)  # uneven split


def test_unknown_subject_rejected_at_submission(served):
    registry, _, _ = served
    with QueryService(registry) as service:
        with pytest.raises(UnknownSubjectError):
            service.submit(EffectRequest.of("nope", "Throughput", {}))


def test_per_subject_fairness_round_robin(served):
    registry, entry, _ = served
    registry.adopt("second", entry.engine)
    hot = EffectRequest.of(SUBJECT, "Throughput", {"CachePolicy": 0.0})
    cold = EffectRequest.of("second", "Throughput", {"CachePolicy": 3.0})
    service = QueryService(registry, auto_start=False, max_batch=8,
                           fairness_quantum=4)
    hot_futures = [service.submit_async(hot) for _ in range(20)]
    cold_futures = [service.submit_async(cold) for _ in range(4)]
    service.start()
    hot_indices = [f.result(timeout=30).dispatch_index for f in hot_futures]
    cold_indices = [f.result(timeout=30).dispatch_index
                    for f in cold_futures]
    service.close()
    # Fairness: the small subject's backlog clears before the deep
    # backlog's final batch, despite being enqueued last.
    assert max(cold_indices) < max(hot_indices)


def test_failing_request_isolated_in_batch(served):
    registry, _, _ = served
    good = AceRequest(subject=SUBJECT, option="CachePolicy",
                      objective="Throughput")
    bad = AceRequest(subject=SUBJECT, option="NoSuchOption",
                     objective="Throughput")
    with QueryService(registry) as service:
        responses = service.submit_many([good, bad, good])
    assert responses[0].ok and responses[2].ok
    assert responses[0].value == responses[2].value
    assert not responses[1].ok and responses[1].value is None


# ------------------------------------------------------------ property-based
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_requests=st.integers(min_value=1, max_value=24))
def test_random_query_mixes_coalesced_equals_serial(served, seed, n_requests):
    registry, entry, _ = served
    system = make_cache_example()
    requests = mixed_workload(SUBJECT, entry.engine, system.objectives,
                              n_requests, seed=seed, max_repairs=16)
    batcher = RequestBatcher()
    assert _canonical(batcher.dispatch(entry, requests)) == \
        _canonical(batcher.serial_dispatch(entry, requests))


# ------------------------------------------------------------ campaign cell
def test_service_throughput_campaign_cell(tmp_path):
    from repro.evaluation import ArtifactStore, CampaignCell, run_campaign

    cells = [CampaignCell("service_throughput", {
        "system": "cache_example", "n_clients": 4,
        "requests_per_client": 3, "n_samples": 30})]
    store = ArtifactStore(tmp_path / "cells")
    first = run_campaign(cells, root_seed=5, store=store).results()
    assert len(first) == 1
    result = first[0]
    assert result["identical"] is True
    assert result["n_queries"] == 12
    assert result["coalesced_ratio"] >= 1.0
    # Resume: the completed cell replays from the artifact store.
    again = run_campaign(cells, root_seed=5, store=store).results()
    assert again == first


def test_request_keys_group_and_deduplicate():
    effect_a = EffectRequest.of("s", "Y", {"X": 1.0})
    effect_b = EffectRequest.of("s", "Y", {"X": 2.0})
    effect_dup = EffectRequest.of("s", "Y", {"X": 1.0})
    assert effect_a.group_key() == effect_b.group_key()
    assert effect_a.item_key() == effect_dup.item_key()
    assert effect_a.item_key() != effect_b.item_key()
    sat = SatisfactionRequest.of(
        "s", constraint=QoSConstraint("Y", "maximize", 1.0),
        intervention={"X": 1.0})
    assert sat.group_key() != effect_a.group_key()
    # Item keys reuse the PerformanceQuery descriptor's batch_key, so the
    # serving layer and the offline engine agree on query identity.
    assert sat.to_performance_query().batch_key() in sat.item_key()


# ------------------------------------------------------ observe validation
def test_observe_rejects_non_finite_measurements_without_state_change(
        tmp_path):
    """A batch of NaN-objective measurements used to be folded in (version
    1), after which every answer for the subject was NaN — also after clean
    observations, and in the persisted snapshot.  It is now refused whole,
    before any state change."""
    spec = {"system": "cache_example", "n_samples": 30, "seed": 0}
    store = ModelStore(tmp_path)
    registry = ModelRegistry(capacity=2, store=store, snapshot_every=1)
    entry = registry.get_or_fit(spec)
    system = entry.unicorn.system
    probes = mixed_workload(entry.key, entry.engine, system.objectives, 12,
                            seed=5)
    batcher = RequestBatcher()
    before = canonical_answers(batcher.dispatch(entry, probes))
    rows, data_before = entry.n_measurements, \
        entry.engine.learned_model.data
    publishes, versions = registry.store_publishes, store.versions(entry.key)

    rng = np.random.default_rng(5)
    clean = system.measure_many(system.space.sample_configurations(8, rng),
                                rng=rng)
    for bad in (float("nan"), float("inf"), -float("inf")):
        poisoned = [replace(m, objectives={k: bad for k in m.objectives})
                    for m in clean]
        with pytest.raises(InvalidMeasurementError):
            registry.observe(entry.key, poisoned)
    # One bad value anywhere rejects the whole batch, events included.
    event = next(iter(clean[-1].events))
    mixed = clean[:-1] + [replace(clean[-1], events={
        **clean[-1].events, event: float("nan")})]
    with pytest.raises(InvalidMeasurementError):
        registry.observe(entry.key, mixed, op_id=1)

    assert entry.version == 0 and entry.applied_op_id == 0
    assert entry.n_measurements == rows
    assert entry.engine.learned_model.data is data_before
    assert registry.store_publishes == publishes
    assert store.versions(entry.key) == versions
    assert canonical_answers(batcher.dispatch(entry, probes)) == before

    assert registry.observe(entry.key, clean, op_id=1) == 1
    answers = canonical_answers(batcher.dispatch(entry, probes))
    assert not any("NaN" in answer or "Infinity" in answer
                   for answer in answers)
