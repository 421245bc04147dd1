"""Tests of the observability tier: per-request tracing and metrics.

Covers the contracts ISSUE 10 demands of ``repro.service.tracing`` and
``repro.service.metrics``:

* **trace completeness** — a concurrent mixed workload served with the
  tracer on finishes exactly one context per request, with queue/engine
  segments, coalesce group sizes and cache verdicts filled in;
* **trace determinism** — the same seeded workload replayed twice
  through the deterministic dispatch path renders byte-identical JSONL
  (wall-clock duration fields stripped);
* **zero overhead when disabled** — a full workload with tracing off
  allocates no contexts (``contexts_created`` stays 0, asserted via the
  counter hook);
* **metrics primitives** — the streaming latency reservoir, the
  power-of-two batch-size histogram, and the
  :class:`~repro.service.metrics.MetricsSnapshot` dict round trip;
* **the wire surface** — the gateway's ``metrics`` verb returns a live
  snapshot, and tenant/frame-byte annotations land on the traces of
  requests that arrived through the socket.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.unicorn import Unicorn, UnicornConfig
from repro.service import (
    BatchSizeHistogram,
    EffectRequest,
    GatewayClient,
    GatewayServer,
    LatencyReservoir,
    MetricsSnapshot,
    ModelRegistry,
    QueryService,
    RequestBatcher,
    ShardedQueryService,
    Tenant,
    TraceRecorder,
    Tracer,
    canonical_answers,
    mixed_workload,
    UnknownSubjectError,
    serve_concurrently,
    shard_of,
    trace_summary,
)
from repro.systems.cache_example import make_cache_example

SUBJECT = "cache"
N_REQUESTS = 64
N_CLIENTS = 8


def _build_registry(result_cache_size: int | None = 256) -> tuple:
    system = make_cache_example()
    unicorn = Unicorn(system, UnicornConfig(
        initial_samples=100, budget=400, max_condition_size=2, seed=3,
        batched_queries=True))
    registry = ModelRegistry(capacity=4,
                             result_cache_size=result_cache_size)
    entry = registry.register(SUBJECT, unicorn)
    return registry, entry


@pytest.fixture(scope="module")
def served():
    """A fitted registry plus its deterministic mixed workload."""
    registry, entry = _build_registry()
    system = make_cache_example()
    requests = mixed_workload(SUBJECT, entry.engine, system.objectives,
                              N_REQUESTS, seed=11, max_repairs=24)
    # Untimed warm-up so the first traced dispatch measures dispatch,
    # not one-time engine cache construction.
    RequestBatcher().dispatch(entry, requests)
    return registry, entry, requests


# --------------------------------------------------------- trace completeness
def test_traced_workload_finishes_every_context(served):
    registry, entry, requests = served
    tracer = Tracer(enabled=True)
    with QueryService(registry, batch_window=0.002,
                      tracer=tracer) as service:
        responses, _, _ = serve_concurrently(service, requests, N_CLIENTS)
    assert all(r.ok for r in responses)

    traces = tracer.drain()
    assert len(traces) == len(requests)
    assert not tracer.finished()  # drain removed everything
    assert tracer.contexts_created == len(requests)

    for trace in traces:
        assert trace.subject == SUBJECT
        assert trace.request_id.startswith(f"{SUBJECT}/")
        assert trace.error == ""
        assert trace.total_seconds > 0.0
        assert trace.queue_wait_seconds >= 0.0
        assert trace.coalesce_group_size >= 1

    summary = trace_summary(traces)
    assert summary["requests"] == len(requests)
    assert 0.0 <= summary["cache_hit_rate"] <= 1.0
    assert summary["mean_coalesce_group"] >= 1.0


def test_trace_ids_unique_even_for_repeated_requests(served):
    registry, entry, requests = served
    tracer = Tracer(enabled=True)
    with QueryService(registry, batch_window=0.002,
                      tracer=tracer) as service:
        serve_concurrently(service, requests, N_CLIENTS)
    ids = [t.request_id for t in tracer.drain()]
    # The workload deliberately repeats hot requests; occurrence indices
    # must still make every trace id unique.
    assert len(set(ids)) == len(ids)


# --------------------------------------------------------- trace determinism
def _deterministic_trace_jsonl(seed: int) -> str:
    """One serial replay of the seeded workload, rendered as JSONL."""
    registry, entry = _build_registry()
    system = make_cache_example()
    requests = mixed_workload(SUBJECT, entry.engine, system.objectives,
                              N_REQUESTS, seed=seed, max_repairs=24)
    tracer = Tracer(enabled=True)
    batcher = RequestBatcher()
    traces = tracer.open(requests)
    responses = batcher.dispatch(entry, requests, traces=traces)
    tracer.retire(traces)
    assert all(r.ok for r in responses)
    return TraceRecorder(root_seed=seed).render(tracer.drain())


def test_trace_record_byte_identical_across_replays():
    first = _deterministic_trace_jsonl(seed=11)
    second = _deterministic_trace_jsonl(seed=11)
    assert first == second
    header = first.splitlines()[0]
    assert '"records": 64' in header and '"root_seed": 11' in header


def test_trace_record_write_and_load_round_trip(tmp_path):
    registry, entry = _build_registry()
    system = make_cache_example()
    requests = mixed_workload(SUBJECT, entry.engine, system.objectives,
                              16, seed=5, max_repairs=24)
    tracer = Tracer(enabled=True)
    traces = tracer.open(requests)
    RequestBatcher().dispatch(entry, requests, traces=traces)
    tracer.retire(traces)

    path = TraceRecorder(root_seed=5).write(tmp_path / "trace.jsonl",
                                            tracer.drain())
    header, records = TraceRecorder.load(path)
    assert header == {"root_seed": 5, "records": 16}
    assert len(records) == 16
    for record in records:
        assert "queue_wait_seconds" not in record  # wall clock stripped
        assert record["subject"] == SUBJECT


# ------------------------------------------------- zero overhead when disabled
def test_disabled_tracer_allocates_nothing(served):
    registry, entry, requests = served
    with QueryService(registry, batch_window=0.002) as service:
        tracer = service.tracer  # default: disabled
        assert not tracer.enabled
        responses, _, _ = serve_concurrently(service, requests, N_CLIENTS)
    assert all(r.ok for r in responses)
    assert tracer.contexts_created == 0
    assert tracer.finished() == []
    assert tracer.open(requests[:1]) is None
    tracer.annotate(requests[0], tenant="t")
    assert tracer.open(requests[:1]) is None
    assert tracer.contexts_created == 0


def test_tracing_does_not_change_answers(served):
    registry, entry, requests = served
    reference = RequestBatcher().serial_dispatch(entry, requests)
    tracer = Tracer(enabled=True)
    with QueryService(registry, batch_window=0.002,
                      tracer=tracer) as service:
        responses, _, _ = serve_concurrently(service, requests, N_CLIENTS)
    assert canonical_answers(responses) == canonical_answers(reference)


# ---------------------------------------------------------- metrics primitives
def test_latency_reservoir_percentiles():
    reservoir = LatencyReservoir(capacity=128)
    assert reservoir.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    reservoir.record_many([i / 1000.0 for i in range(1, 101)])
    quantiles = reservoir.percentiles()
    assert quantiles["p50"] == pytest.approx(50.0, abs=1.0)
    assert quantiles["p95"] == pytest.approx(95.0, abs=1.0)
    assert quantiles["p99"] == pytest.approx(99.0, abs=1.0)
    assert reservoir.count == 100


def test_latency_reservoir_bounded_memory():
    reservoir = LatencyReservoir(capacity=32)
    reservoir.record_many([1.0] * 1000)
    assert reservoir.count == 1000
    assert len(reservoir.samples()) == 32


def test_batch_size_histogram_buckets():
    histogram = BatchSizeHistogram()
    for size in (1, 1, 2, 3, 5, 9, 2048, 5000):
        histogram.record(size)
    buckets = histogram.as_dict()
    assert buckets["1"] == 2
    assert buckets["2-3"] == 2
    assert buckets["4-7"] == 1
    assert buckets["8-15"] == 1
    assert buckets["2048+"] == 2
    assert histogram.total() == 8


def test_metrics_snapshot_dict_round_trip():
    snapshot = MetricsSnapshot(
        queue_depth=3, in_flight=2, submitted=10, answered=8,
        coalescing_ratio=1.5, cache_hits=4, cache_misses=6, refreshes=1,
        batch_histogram={"1": 2, "2-3": 3},
        latency_ms={"p50": 1.0, "p95": 2.0, "p99": 3.0},
        latency_samples=8)
    assert MetricsSnapshot.from_dict(snapshot.as_dict()) == snapshot


def test_service_metrics_snapshot_reflects_served_traffic(served):
    registry, entry, requests = served
    with QueryService(registry, batch_window=0.002) as service:
        responses, _, _ = serve_concurrently(service, requests, N_CLIENTS)
        snapshot = service.metrics_snapshot()
    assert all(r.ok for r in responses)
    assert snapshot.submitted == len(requests)
    assert snapshot.answered == len(requests)
    assert snapshot.in_flight == 0
    assert snapshot.queue_depth == 0
    assert snapshot.latency_samples == len(requests)
    assert snapshot.latency_ms["p99"] >= snapshot.latency_ms["p50"] > 0.0
    assert sum(snapshot.batch_histogram.values()) > 0


# ------------------------------------------------------------- wire surface
def test_gateway_metrics_verb_and_trace_annotations(served):
    registry, entry, requests = served
    tracer = Tracer(enabled=True)
    tenants = {"key-a": Tenant("tenant-a")}
    unknown = EffectRequest.of("no-such-subject", "Throughput",
                               {"CachePolicy": 0.0})
    with QueryService(registry, batch_window=0.002,
                      tracer=tracer) as service:
        with GatewayServer(service, tenants=tenants) as gateway:
            with GatewayClient(gateway.address, api_key="key-a") as client:
                with pytest.raises(UnknownSubjectError):
                    client.submit(unknown)
                for request in requests[:4]:
                    assert client.submit(request).ok
                metrics = client.metrics()
    assert metrics["submitted"] >= 4
    assert metrics["answered"] >= 4
    assert "latency_ms" in metrics and "batch_histogram" in metrics
    # Round-trips through the typed snapshot.
    assert MetricsSnapshot.from_dict(metrics).submitted == \
        metrics["submitted"]

    # The refused query is traced too, and its annotation is consumed.
    assert tracer._annotations == {}
    refused, *traces = tracer.drain()
    assert refused.error == "UnknownSubjectError"
    assert len(traces) == 4
    for trace in [refused, *traces]:
        assert trace.tenant == "tenant-a"
        assert trace.frame_bytes > 0


def test_item_keys_lead_with_kind(served):
    """Every request kind's item key starts with ``kind.value``.

    The tracer reads the kind straight out of the item key
    (``item_key[0]``) instead of touching the ``kind`` property per
    context, so this ordering is a load-bearing invariant for every
    request class, not a convention.
    """
    registry, entry, requests = served
    assert {r.kind.value for r in requests} >= {"ace", "effect",
                                                "satisfaction", "repair"}
    for request in requests:
        assert request.item_key()[0] == request.kind.value
        assert request.item_key_cached() == request.item_key()


def test_tracer_annotate_before_and_after_begin(served):
    """Annotations posted before a request's context opens fold into it;
    posted after, they wait for that request object's next open."""
    registry, entry, requests = served
    request, other = requests[0], requests[1]
    tracer = Tracer(enabled=True)
    tracer.annotate(request, tenant="early", frame_bytes=10)
    tracer.annotate(request, frame_bytes=5)
    (trace,) = tracer.open([request])
    assert trace.tenant == "early"
    assert trace.frame_bytes == 15
    tracer.annotate(request, tenant="late")
    second, unrelated = tracer.open([request, other])
    assert (trace.tenant, second.tenant) == ("early", "late")
    assert second.frame_bytes == 0 and unrelated.tenant == ""
    assert (trace.occurrence, second.occurrence) == (0, 1)
    assert tracer.finished() == []  # nothing retired yet
    tracer.retire([second, trace])
    assert tracer.drain() == [second, trace]


def test_tracer_reset_forgets_everything(served):
    registry, entry, requests = served
    tracer = Tracer(enabled=True)
    tracer.retire(tracer.open(requests[:4]))
    tracer.annotate(requests[5], tenant="t")
    tracer.reset()
    assert tracer.finished() == []
    # Occurrence counters restart and the annotation is gone.
    (trace,) = tracer.open([requests[5]])
    assert trace.occurrence == 0 and trace.tenant == ""
    assert tracer.open(requests[:1])[0].occurrence == 0


# ------------------------------------------------------- refused submissions
def test_refused_request_consumes_its_annotation(served):
    """A request refused at routing retires its context and takes its
    gateway annotation with it — nothing is left behind for a later
    request that happens to reuse the refused object's ``id()``."""
    registry, entry, requests = served
    tracer = Tracer(enabled=True)
    with QueryService(registry, batch_window=0.0,
                      tracer=tracer) as service:
        for i in range(50):
            refused = EffectRequest.of("no-such-subject", "Throughput",
                                       {"CachePolicy": float(i)})
            tracer.annotate(refused, tenant=f"refused-{i}", frame_bytes=9)
            with pytest.raises(UnknownSubjectError):
                service.submit_async(refused)
            del refused
            good = dataclasses.replace(requests[i % len(requests)])
            assert service.submit(good).ok
    assert tracer._annotations == {}
    traces = tracer.drain()
    assert len(traces) == 100 == tracer.contexts_created
    refusals = [t for t in traces if t.error]
    answered = [t for t in traces if not t.error]
    assert [t.tenant for t in refusals] == [f"refused-{i}"
                                            for i in range(50)]
    assert {t.error for t in refusals} == {"UnknownSubjectError"}
    assert all(t.frame_bytes == 9 for t in refusals)
    assert [t.tenant for t in answered] == [""] * 50


# ------------------------------------------------------------ sharded tier
def test_sharded_traces_survive_worker_crash_and_requeue():
    """Thread-mode sharded tier with a worker crash: every request
    retires exactly one context, stamped with the shard that owns its
    subject, including the batches requeued to the respawned worker."""
    specs = {f"cache-{i}": {"system": "cache_example", "n_samples": 40,
                            "max_condition_size": 2, "seed": i}
             for i in range(3)}
    shards = 2
    requests = [EffectRequest.of(subject, "Throughput",
                                 {"CachePolicy": float(k)})
                for subject in specs for k in range(4)]
    tracer = Tracer(enabled=True)
    with ShardedQueryService(specs, shards=shards, use_processes=False,
                             tracer=tracer) as service:
        assert all(r.ok for r in service.submit_many(requests))
        service._inject_crash(shard_of("cache-0", shards))
        futures = [service.submit_async(r) for r in requests]
        assert all(f.result(timeout=120).ok for f in futures)
        assert service.stats.respawns == 1
        assert service.stats.requeues >= 1
    traces = tracer.drain()
    submitted = 2 * len(requests)
    assert tracer.contexts_created == submitted == len(traces)
    ids = [t.request_id for t in traces]
    assert len(set(ids)) == len(ids)
    assert sorted(ids) == sorted(
        f"{r.subject}/{r.kind.value}/{r.item_key()}#{n}"
        for r in requests for n in (0, 1))
    for trace in traces:
        assert trace.error == ""
        assert trace.shard == shard_of(trace.subject, shards)


def test_trace_summary_of_nothing_is_zeroes():
    assert trace_summary([]) == {"requests": 0, "cache_hit_rate": 0.0,
                                 "mean_coalesce_group": 0.0,
                                 "batched_share": 0.0}


def test_trace_recorder_rejects_empty_file(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty trace file"):
        TraceRecorder.load(empty)


def test_metrics_primitives_validate_arguments():
    with pytest.raises(ValueError, match="capacity"):
        LatencyReservoir(capacity=0)
    with pytest.raises(ValueError, match="bucket"):
        BatchSizeHistogram(n_buckets=0)
    reservoir = LatencyReservoir(capacity=4)
    reservoir.record(0.5)  # singular hot-path variant
    assert reservoir.count == 1
    histogram = BatchSizeHistogram()
    histogram.record(0)  # empty dispatches are not counted
    assert histogram.total() == 0
