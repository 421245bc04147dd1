"""Tests of the sharded multi-process serving tier and drift-aware refresh.

Covers the contracts ISSUE 5 demands of the sharded tier:

* **routing** — :func:`shard_of` is a stable pure function of
  ``(subject, shards)``;
* **byte-identity** — sharded responses equal single-process
  :class:`QueryService` responses for every shard count in {1, 2, 4, 8}
  (hypothesis-driven over random workload seeds), in worker-thread mode
  and, for one spot check, across real worker processes;
* **crash recovery** — a dead worker is respawned, its in-flight batches
  requeued, its observation journal replayed (the replica reconverges to
  the pre-crash model state), and a poison batch resolves with an error
  once the requeue budget is spent;
* **drift-aware refresh** — stationary streams are absorbed without
  relearning, shifted streams trigger the incremental refresh under
  version isolation (background refreshes land at quiesce points and
  never mix model versions inside one dispatched batch);
* the :class:`~repro.service.service.QueryService` ``close()`` bugfix —
  futures that can no longer be served resolve with a deterministic
  :class:`ServiceClosedError` instead of hanging or being silently
  cancelled.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    AdmissionError,
    DriftDetector,
    EffectRequest,
    InvalidMeasurementError,
    ModelRegistry,
    QueryService,
    RequestBatcher,
    ServiceClosedError,
    ShardedQueryService,
    UnknownSubjectError,
    canonical_answers,
    long_horizon_workload,
    mixed_workload,
    registry_from_specs,
    serve_rounds,
    shard_of,
    unicorn_from_spec,
)
from repro.systems.base import Measurement
from repro.systems.cache_example import make_cache_example

SPECS = {f"cache-{i}": {"system": "cache_example", "n_samples": 40,
                        "max_condition_size": 2, "seed": i}
         for i in range(5)}


def _shift(measurements, scale):
    """Scale every objective of a measurement batch (a regime change)."""
    return [Measurement(configuration=m.configuration, events=m.events,
                        objectives={k: v * scale
                                    for k, v in m.objectives.items()},
                        environment=m.environment)
            for m in measurements]


@pytest.fixture(scope="module")
def reference():
    """Single-process registry over SPECS plus a per-subject workload pool."""
    registry = registry_from_specs(SPECS)
    system = make_cache_example()
    engines = {subject: registry.get(subject).engine for subject in SPECS}
    return registry, engines, system


@pytest.fixture(scope="module")
def sharded_services():
    """One worker-thread sharded service per shard count in {1, 2, 4, 8}."""
    services = {
        shards: ShardedQueryService(SPECS, shards=shards,
                                    use_processes=False)
        for shards in (1, 2, 4, 8)
    }
    yield services
    for service in services.values():
        service.close()


# ------------------------------------------------------------------- routing
def test_shard_routing_is_stable_and_total():
    assert shard_of("cache-0", 1) == 0
    for shards in (1, 2, 4, 8):
        indices = {subject: shard_of(subject, shards) for subject in SPECS}
        assert all(0 <= i < shards for i in indices.values())
        # Pure function: a second computation agrees.
        assert indices == {s: shard_of(s, shards) for s in SPECS}
    with pytest.raises(ValueError):
        shard_of("x", 0)


# -------------------------------------------------------------- byte-identity
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_requests=st.integers(min_value=1, max_value=20))
def test_sharded_equals_single_process_for_any_shard_count(
        reference, sharded_services, seed, n_requests):
    registry, engines, system = reference
    requests = []
    for position, subject in enumerate(sorted(SPECS)):
        requests.extend(mixed_workload(
            subject, engines[subject], system.objectives, n_requests,
            seed=seed + position, max_repairs=12))
    serial = []
    batcher = RequestBatcher()
    for subject in sorted(SPECS):
        serial.extend(batcher.serial_dispatch(
            registry.get(subject),
            [r for r in requests if r.subject == subject]))
    expected = canonical_answers(serial)

    for shards, service in sharded_services.items():
        responses = service.submit_many(requests)
        by_subject = []
        for subject in sorted(SPECS):
            by_subject.extend(r for r in responses
                              if r.subject == subject)
        assert canonical_answers(by_subject) == expected, \
            f"shard count {shards} changed an answer"


def test_sharded_identity_across_real_processes(reference):
    registry, engines, system = reference
    requests = []
    for position, subject in enumerate(sorted(SPECS)):
        requests.extend(mixed_workload(
            subject, engines[subject], system.objectives, 6,
            seed=31 + position, max_repairs=12))
    with QueryService(registry) as service:
        expected = canonical_answers(service.submit_many(requests))
    with ShardedQueryService(SPECS, shards=2, use_processes=True) as sharded:
        got = canonical_answers(sharded.submit_many(requests))
    assert got == expected


def test_sharded_long_horizon_with_drift_equals_single_process(reference):
    _, engines, system = reference
    systems = {subject: system for subject in SPECS}
    rounds = long_horizon_workload(
        engines, systems, n_rounds=3, queries_per_round=20,
        observations_per_round=8, seed=9, drift_rounds=(1,),
        drift_scale=1.7, observation_batches_per_round=2)
    drift_options = dict(drift_threshold=6.0, drift_min_window=6,
                         refresh_async=True)
    single = registry_from_specs(SPECS, **drift_options)
    with QueryService(single) as service:
        expected, _ = serve_rounds(service, rounds, n_clients=4)
    with ShardedQueryService(SPECS, shards=3, use_processes=False,
                             **drift_options) as sharded:
        got, _ = serve_rounds(sharded, rounds, n_clients=4)
        worker_stats = sharded.worker_stats()
    assert canonical_answers(got) == canonical_answers(expected)
    # Both tiers made the same (deterministic) refresh decisions, and the
    # injected shift really did trigger refreshes.
    assert single.refreshes >= len(SPECS)
    assert sum(w["refreshes"] for w in worker_stats) == single.refreshes
    assert single.refreshes_skipped > 0


# ------------------------------------------------------------- crash recovery
def test_worker_crash_requeues_and_replays_journal():
    specs = {"cache-a": dict(SPECS["cache-0"]),
             "cache-b": dict(SPECS["cache-1"])}
    system = make_cache_example()
    rng = np.random.default_rng(3)
    fresh = system.measure_many(system.space.sample_configurations(6, rng),
                                rng=rng)
    request_a = EffectRequest.of("cache-a", "Throughput",
                                 {"CachePolicy": 0.0})
    with ShardedQueryService(specs, shards=1, use_processes=False,
                             drift_threshold=6.0, drift_min_window=4,
                             refresh_async=True) as service:
        before = service.submit(request_a)
        # Observations (one of them drifted, triggering a refresh) enter
        # the journal; the post-refresh answer differs from the pre-drift
        # one.
        service.observe("cache-a", fresh)
        service.observe("cache-a", _shift(fresh, 1.8))
        service.quiesce()
        refreshed = service.submit(request_a)
        assert refreshed.model_version > before.model_version

        service._inject_crash(0)
        # Requests sent after the crash land on the dead worker, get
        # requeued to its replacement, and — thanks to journal replay —
        # are answered from the exact pre-crash model state.
        futures = [service.submit_async(request_a) for _ in range(4)]
        answers = [future.result(timeout=60) for future in futures]
        assert service.stats.respawns == 1
        assert service.stats.requeues >= 1
        assert all(a.ok for a in answers)
        assert all(a.value == refreshed.value for a in answers)
        assert all(a.model_version == refreshed.model_version
                   for a in answers)


def test_crash_requeue_budget_exhaustion_fails_deterministically():
    specs = {"cache-a": dict(SPECS["cache-0"])}
    request = EffectRequest.of("cache-a", "Throughput", {"CachePolicy": 0.0})
    with ShardedQueryService(specs, shards=1, use_processes=False,
                             max_requeues=0) as service:
        service.submit(request)          # worker demonstrably healthy
        service._inject_crash(0)
        future = service.submit_async(request)
        response = future.result(timeout=60)
        # Requeue budget 0: the batch is not retried on the respawned
        # worker; its futures resolve with an error response instead.
        assert not response.ok
        assert "requeued" in response.error
        # The synthesized error settlement counts as an *error*, not as
        # a served answer — monitoring must not see failures as success.
        assert service.stats.errors == 1
        answered_before = service.stats.answered
        # The shard itself recovered and keeps serving.
        assert service.submit(request, timeout=60).ok
        assert service.stats.answered == answered_before + 1
        assert service.stats.errors == 1


def test_sharded_admission_unknown_subject_and_close_semantics():
    specs = {"cache-a": dict(SPECS["cache-0"])}
    request = EffectRequest.of("cache-a", "Throughput", {"CachePolicy": 0.0})
    service = ShardedQueryService(specs, shards=1, use_processes=False,
                                  max_pending=2, batch_window=0.2)
    with pytest.raises(UnknownSubjectError):
        service.submit(EffectRequest.of("nope", "Throughput", {}))
    with pytest.raises(UnknownSubjectError):
        service.observe("nope", [])
    # The slow sender window keeps both submissions queued, so the third
    # submission overflows the in-flight budget.
    futures = [service.submit_async(request) for _ in range(2)]
    with pytest.raises(AdmissionError):
        service.submit_async(request)
    assert service.stats.rejected == 1
    assert all(f.result(timeout=60).ok for f in futures)
    service.close()
    with pytest.raises(ServiceClosedError):
        service.submit(request)
    with pytest.raises(ServiceClosedError):
        service.quiesce()
    service.close()  # idempotent


def test_sharded_close_resolves_undispatched_with_service_closed():
    specs = {"cache-a": dict(SPECS["cache-0"])}
    request = EffectRequest.of("cache-a", "Throughput", {"CachePolicy": 0.0})
    # A very long sender window: submissions sit in the outbox when close
    # arrives; close flushes them ahead of the shutdown command, so they
    # are still answered (the drain promise) — nothing hangs either way.
    service = ShardedQueryService(specs, shards=1, use_processes=False,
                                  batch_window=0.05)
    futures = [service.submit_async(request) for _ in range(3)]
    service.close()
    outcomes = []
    for future in futures:
        try:
            outcomes.append(future.result(timeout=10))
        except ServiceClosedError:
            outcomes.append("closed")
    assert all(o == "closed" or o.ok for o in outcomes)
    assert service.n_pending == 0


def test_request_drained_behind_shutdown_settles_on_close():
    """A request the sender drains *behind* a shutdown op must not be
    dropped: close() settles it with ServiceClosedError."""
    from repro.service.sharding import _ControlOp

    specs = {"cache-a": dict(SPECS["cache-0"])}
    request = EffectRequest.of("cache-a", "Throughput", {"CachePolicy": 0.0})
    service = ShardedQueryService(specs, shards=1, use_processes=False)
    shard = service._shards[0]
    with shard.cv:
        shard.paused = True  # park the sender so the request stays queued
    future = service.submit_async(request)
    with shard.cv:
        pending = shard.outbox.popleft()
    # The race: admission passed, then close()'s shutdown op got ahead
    # of the request in the drained run.
    service._flush(shard, [_ControlOp(verb="shutdown", op_id=0), pending])
    service.close(timeout=10)
    with pytest.raises(ServiceClosedError):
        future.result(timeout=5)
    assert service.n_pending == 0
    assert service.stats.closed_errors == 1


# ------------------------------------------------------- drift-aware refresh
def test_drift_detector_statistics_and_windows():
    system = make_cache_example()
    registry = ModelRegistry(capacity=2)
    entry = registry.register_spec("cache", dict(SPECS["cache-0"]))
    rng = np.random.default_rng(11)
    stationary = system.measure_many(
        system.space.sample_configurations(10, rng), rng=rng)

    detector = DriftDetector(["Throughput"], threshold=6.0, min_window=4,
                             max_window=16)
    with pytest.raises(RuntimeError):
        detector.extend(entry.engine, stationary)
    detector.rebaseline(entry.engine, entry.state.measurements)
    assert detector.window_size == 0 and detector.score() == 0.0

    # Below min_window: no opinion either way.
    assert detector.extend(entry.engine, stationary[:2]) == 0.0
    # A stationary window scores low; a scaled regime shift scores high.
    low = detector.extend(entry.engine, stationary[2:])
    assert low < 6.0 and not detector.should_refresh()
    high = detector.extend(entry.engine, _shift(stationary, 2.0))
    assert high >= 6.0 and detector.should_refresh()
    assert detector.score_history[-1] == high == detector.last_score

    # The window tumbles at max_window instead of growing without bound.
    assert detector.window_size == 20
    detector.extend(entry.engine, stationary[:2])
    assert detector.window_size == 2

    state = detector.state()
    assert state["threshold"] == 6.0 and state["window_size"] == 2
    assert state["baseline_n"] == len(entry.state.measurements)

    # A pure variance shift (zero-mean noise widening) also trips it.
    detector.rebaseline(entry.engine, entry.state.measurements)
    noisy = []
    noise = np.random.default_rng(7)
    for m in stationary:
        factor = 1.0 + float(noise.choice((-0.9, 0.9)))
        noisy.extend(_shift([m], factor))
    assert detector.extend(entry.engine, noisy) >= 6.0

    with pytest.raises(ValueError):
        DriftDetector([], threshold=6.0)
    with pytest.raises(ValueError):
        DriftDetector(["Throughput"], threshold=0.0)


def test_registry_drift_mode_buffers_and_refreshes():
    system = make_cache_example()
    registry = ModelRegistry(capacity=2, drift_threshold=6.0,
                             drift_min_window=4)
    entry = registry.register_spec("cache", dict(SPECS["cache-0"]))
    rng = np.random.default_rng(5)
    fresh = system.measure_many(system.space.sample_configurations(8, rng),
                                rng=rng)
    rows_before = entry.n_measurements

    # Stationary: buffered, not folded; version unchanged.
    version = registry.observe("cache", fresh)
    assert version == 0 and entry.version == 0
    assert registry.refreshes_skipped == 1 and registry.refreshes == 0
    assert len(entry.pending) == 8
    assert entry.n_measurements == rows_before

    # Drifted: the whole buffer folds through the incremental relearn.
    engine_before = entry.engine
    version = registry.observe("cache", _shift(fresh, 1.8))
    assert version == 1 and entry.version == 1
    assert registry.refreshes == 1 and not entry.pending
    assert entry.n_measurements == rows_before + 16
    assert entry.engine is engine_before          # refreshed, not rebuilt
    assert entry.state.learned.history[-1]["incremental"] == 1.0
    # The detector rebaselined against the refreshed model.
    assert entry.drift.window_size == 0


def test_async_refresh_does_not_block_other_subjects_and_quiesces():
    registry = ModelRegistry(capacity=4, drift_threshold=6.0,
                             drift_min_window=4, refresh_async=True)
    registry.register_spec("cache-a", dict(SPECS["cache-0"]))
    entry_b = registry.register_spec("cache-b", dict(SPECS["cache-1"]))
    system = make_cache_example()
    rng = np.random.default_rng(6)
    fresh = system.measure_many(system.space.sample_configurations(8, rng),
                                rng=rng)
    version = registry.observe("cache-a", _shift(fresh, 2.0))
    # The observing caller was not charged for the relearn...
    assert version == 0
    # ...and another subject's queries proceed meanwhile.
    batcher = RequestBatcher()
    response = batcher.dispatch(entry_b, [EffectRequest.of(
        "cache-b", "Throughput", {"CachePolicy": 0.0})])[0]
    assert response.ok and response.model_version == 0
    registry.quiesce()
    assert registry.get("cache-a").version == 1
    # A second observe after quiesce sees the settled state (the
    # refresh_event handshake) and starts a fresh window.
    assert registry.observe("cache-a", fresh) == 1


def test_batches_never_mix_model_versions_under_concurrent_refresh():
    """Version isolation: every coalesced batch is answered at one version
    even while eager observes bump the model concurrently."""
    system = make_cache_example()
    registry = ModelRegistry(capacity=2)
    entry = registry.register_spec("cache", dict(SPECS["cache-0"]))
    requests = [EffectRequest.of("cache", "Throughput",
                                 {"CachePolicy": float(v)})
                for v in (0.0, 1.0, 2.0, 3.0)] * 3
    batcher = RequestBatcher()
    stop = threading.Event()
    rng = np.random.default_rng(8)

    def refresher() -> None:
        while not stop.is_set():
            fresh = system.measure_many(
                system.space.sample_configurations(2, rng), rng=rng)
            registry.observe("cache", fresh)

    thread = threading.Thread(target=refresher)
    thread.start()
    try:
        for _ in range(12):
            responses = batcher.dispatch(entry, requests)
            versions = {r.model_version for r in responses}
            assert len(versions) == 1, \
                f"one dispatch mixed model versions: {versions}"
    finally:
        stop.set()
        thread.join()
    assert entry.version > 0


# ------------------------------------------------------------ worker protocol
def test_shard_server_protocol_replies_inline():
    """The worker loop's reply protocol, driven synchronously in-process."""
    import queue

    from repro.service.worker import InjectedCrash, ShardServer

    commands: "queue.Queue" = queue.Queue()
    results: "queue.Queue" = queue.Queue()
    server = ShardServer(0, commands, results)

    commands.put(("fit", "cache", dict(SPECS["cache-0"])))
    commands.put(("fit", "broken", {"n_samples": 10}))       # no system key
    commands.put(("observe", 1, "nope", []))                 # unknown subject
    commands.put(("quiesce", 2))
    commands.put(("flush", 5))
    commands.put(("stats", 3))
    commands.put(("dispatch", 4, [
        EffectRequest.of("cache", "Throughput", {"CachePolicy": 0.0}),
        EffectRequest.of("nope", "Throughput", {}),          # error response
    ]))
    commands.put(("observe", 6, "cache", []))
    commands.put(("frobnicate",))                            # unknown verb
    commands.put(("shutdown",))
    server.run()

    assert results.get_nowait()[0] == "fitted"
    assert results.get_nowait()[:2] == ("fit_error", "broken")
    verb, op_id, message = results.get_nowait()
    assert (verb, op_id) == ("failed", 1) and "nope" in message
    # Every control op answers ("done", op_id, value, watermarks).
    # Quiesce and flush carry the registry's per-subject snapshot
    # watermarks (empty without a store) so the parent can compact quiet
    # subjects; flush's value is how many snapshots it published.
    assert results.get_nowait() == ("done", 2, None, {})
    assert results.get_nowait() == ("done", 5, 0, {})
    verb, op_id, stats, watermarks = results.get_nowait()
    assert (verb, op_id, watermarks) == ("done", 3, {})
    assert stats["subjects"] == ["cache"] and stats["shard"] == 0
    verb, batch_id, responses = results.get_nowait()
    assert (verb, batch_id) == ("answers", 4)
    assert responses[0].ok and not responses[1].ok
    # An observe's value is the entry version, its watermark map names
    # the observed subject.
    verb, op_id, version, watermarks = results.get_nowait()
    assert (verb, op_id, watermarks) == ("done", 6, {"cache": 0})
    assert isinstance(version, int)
    assert results.get_nowait()[0] == "protocol_error"
    assert results.get_nowait() == ("bye",)

    commands.put(("crash",))
    with pytest.raises(InjectedCrash):
        server.run()


# ----------------------------------------------------------- spec determinism
def test_register_spec_is_a_pure_function_of_the_spec():
    spec = dict(SPECS["cache-2"])
    with pytest.raises(KeyError):
        unicorn_from_spec({"n_samples": 10})
    entry_a = ModelRegistry(capacity=1).register_spec("s", dict(spec))
    entry_b = ModelRegistry(capacity=1).register_spec("s", dict(spec))
    system = make_cache_example()
    requests = mixed_workload("s", entry_a.engine, system.objectives, 16,
                              seed=2, max_repairs=12)
    batcher = RequestBatcher()
    assert canonical_answers(batcher.dispatch(entry_a, requests)) == \
        canonical_answers(batcher.dispatch(entry_b, requests))


# ----------------------------------------------------------- workload shapes
def test_long_horizon_workload_shape_and_determinism(reference):
    _, engines, system = reference
    systems = {subject: system for subject in SPECS}
    kwargs = dict(n_rounds=2, queries_per_round=13, observations_per_round=6,
                  seed=4, drift_rounds=(1,), drift_scale=1.5,
                  observation_batches_per_round=2)
    rounds = long_horizon_workload(engines, systems, **kwargs)
    again = long_horizon_workload(engines, systems, **kwargs)
    assert len(rounds) == 2
    for round_spec in rounds:
        assert len(round_spec["queries"]) == 13
        assert set(round_spec["observations"]) == set(SPECS)
        for batches in round_spec["observations"].values():
            assert len(batches) == 2 and all(len(b) == 3 for b in batches)
    assert [r["queries"] for r in rounds] == [r["queries"] for r in again]
    # The drift round scales objectives persistently.
    subject = sorted(SPECS)[0]
    pre = rounds[0]["observations"][subject][0][0]
    post = rounds[1]["observations"][subject][1][0]
    assert max(post.objectives.values()) != max(pre.objectives.values())
    with pytest.raises(ValueError):
        long_horizon_workload({}, {}, 1, 4, 4)


# -------------------------------------------------- sharded campaign cell
def test_sharded_service_campaign_cell(tmp_path):
    from repro.evaluation import ArtifactStore, CampaignCell, run_campaign

    cells = [CampaignCell("sharded_service_throughput", {
        "system": "cache_example", "n_subjects": 2, "shards": 2,
        "n_clients": 2, "n_rounds": 2, "queries_per_round": 8,
        "observations_per_round": 4, "n_samples": 30,
        "drift_rounds": [1], "drift_scale": 1.8,
        "drift_min_window": 4, "use_processes": False})]
    store = ArtifactStore(tmp_path / "cells")
    first = run_campaign(cells, root_seed=3, store=store).results()
    assert len(first) == 1
    result = first[0]
    assert result["identical"] is True
    assert result["shards"] == 2
    assert result["eager_refreshes"] > result["sharded_refreshes"] >= 1
    # Resume: the completed cell replays from the artifact store.
    again = run_campaign(cells, root_seed=3, store=store).results()
    assert again == first


# ------------------------------------------------- shard-lifecycle bugfixes
def _fail_shard_zero(service):
    """Poison shard 0's respawn spec and crash it → permanent failure."""
    shard = service._shards[0]
    subject = next(iter(shard.subjects))
    shard.subjects[subject] = {"system": "no-such-system"}
    service._inject_crash(0)
    deadline = time.monotonic() + 60
    while not shard.failed:
        assert time.monotonic() < deadline, "shard never failed"
        time.sleep(0.01)
    return subject


def test_failed_shard_degrades_monitoring_not_the_fleet():
    """One dead shard must not blind worker_stats/quiesce for the rest."""
    specs = {s: dict(SPECS[s]) for s in ("cache-0", "cache-1", "cache-2")}
    by_shard = {s: shard_of(s, 2) for s in specs}
    assert set(by_shard.values()) == {0, 1}, "need both shards populated"
    with ShardedQueryService(specs, shards=2,
                             use_processes=False) as service:
        failed_subject = _fail_shard_zero(service)
        # The barrier and the stats probe skip the failed shard instead
        # of raising ServiceClosedError fleet-wide.
        service.quiesce(timeout=60)
        payloads = service.worker_stats(timeout=60)
        assert len(payloads) == 2
        assert payloads[0] == {"failed": True, "shard": 0}
        assert payloads[1]["shard"] == 1 and "subjects" in payloads[1]
        # Healthy subjects keep serving; the failed shard fails fast.
        healthy = next(s for s, i in by_shard.items() if i == 1)
        request = EffectRequest.of(healthy, "Throughput",
                                   {"CachePolicy": 0.0})
        assert service.submit(request, timeout=60).ok
        with pytest.raises(ServiceClosedError):
            service.submit(EffectRequest.of(failed_subject, "Throughput",
                                            {"CachePolicy": 0.0}))


def test_respawn_aborts_early_when_service_is_closing():
    """A close() racing the liveness monitor must not wait out a refit."""
    specs = {"cache-a": dict(SPECS["cache-0"])}
    with ShardedQueryService(specs, shards=1,
                             use_processes=False) as service:
        shard = service._shards[0]
        service._closed = True
        with pytest.raises(ServiceClosedError):
            service._respawn(shard)
        # No replacement worker was started and no respawn was counted.
        assert service.stats.respawns == 0
        service._closed = False  # let the fixture close() run normally


def test_flush_compacts_quiet_subject_journals(tmp_path):
    """Watermarks on flush acks shrink journals of quiet subjects."""
    system = make_cache_example()
    rng = np.random.default_rng(11)
    fresh = system.measure_many(system.space.sample_configurations(4, rng),
                                rng=rng)
    specs = {"cache-a": dict(SPECS["cache-0"])}
    with ShardedQueryService(specs, shards=1, use_processes=False,
                             store_path=str(tmp_path / "store"),
                             snapshot_every=8) as service:
        shard = service._shards[0]
        # Two observes fold eagerly but stay below the snapshot cadence:
        # no publish, no watermark, so per-observe compaction never
        # fires and the journal retains both entries...
        service.observe("cache-a", fresh)
        service.observe("cache-a", _shift(fresh, 1.1))
        with shard.lock:
            assert len(shard.journal) == 2
        # ...and the subject then goes quiet.  Before the fix the stale
        # suffix survived forever; the flush barrier now publishes the
        # advanced entry and its ack's watermark compacts the journal.
        published = service.flush(timeout=60)
        assert published >= 1
        with shard.lock:
            assert shard.journal == []
        assert service.stats.journal_ops_compacted >= 2


# ------------------------------------------------------ observe validation
def _probes(subject):
    return [EffectRequest.of(subject, "Throughput", {"CachePolicy": value})
            for value in (0.0, 1.0)]


def _clean_batch(n=4, seed=11):
    system = make_cache_example()
    rng = np.random.default_rng(seed)
    return system.measure_many(system.space.sample_configurations(n, rng),
                               rng=rng)


def test_sharded_observe_rejects_non_finite_before_journaling():
    """A NaN/inf batch used to reach the worker, come back as a bare
    ``RuntimeError`` and stay in the crash-replay journal; the parent now
    refuses it typed, before journaling or sending anything."""
    specs = {"cache-a": dict(SPECS["cache-0"])}
    fresh = _clean_batch()
    with ShardedQueryService(specs, shards=1,
                             use_processes=False) as service:
        shard = service._shards[0]
        service.observe("cache-a", fresh)
        before = service.submit_many(_probes("cache-a"), timeout=60)
        with shard.lock:
            journaled = len(shard.journal)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InvalidMeasurementError):
                service.observe("cache-a", _shift(fresh, bad))
            with shard.lock:
                assert len(shard.journal) == journaled
        after = service.submit_many(_probes("cache-a"), timeout=60)
    assert canonical_answers(after) == canonical_answers(before)
    assert [r.model_version for r in after] == \
        [r.model_version for r in before]


def test_rejected_observe_leaves_the_store_reloadable(tmp_path):
    """After a refused non-finite batch, a flushed store cold-starts a new
    service generation that answers byte-identically to the answers given
    before the rejection."""
    specs = {"cache-a": dict(SPECS["cache-0"])}
    store_path = str(tmp_path / "store")
    fresh = _clean_batch()
    with ShardedQueryService(specs, shards=1, use_processes=False,
                             store_path=store_path,
                             snapshot_every=8) as service:
        service.observe("cache-a", fresh)
        before = canonical_answers(
            service.submit_many(_probes("cache-a"), timeout=60))
        with pytest.raises(InvalidMeasurementError):
            service.observe("cache-a", _shift(fresh, float("inf")))
        assert service.flush(timeout=60) >= 1
    with ShardedQueryService(specs, shards=1, use_processes=False,
                             store_path=store_path) as reloaded:
        assert reloaded.worker_stats(timeout=60)[0]["store_loads"] == 1
        assert canonical_answers(
            reloaded.submit_many(_probes("cache-a"), timeout=60)) == before
