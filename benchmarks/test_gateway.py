"""Benchmark: the wire-protocol gateway vs direct in-process submission.

The acceptance gate of the serving gateway: **64 concurrent wire
clients**, each pipelining its own seed-tree-derived mixed stream over a
real socket through :class:`~repro.service.gateway.GatewayServer`, must
get answers **byte-identical** (canonical JSON) to the same streams
submitted directly to the fronted ``ShardedQueryService`` — across a
multi-round soak with **availability 1.0** (every request answered,
every round) and **zero gateway-counted protocol errors**.

CI runs on a single core, so the gate is identity + availability + a
**per-call overhead bound**, not a speedup: both the direct baseline and
the wire soak replay the same streams against the same warmed service
(the result cache answers both sides) from the same 64 concurrent client
threads, so their wall-clock difference isolates what the wire adds —
connections, length-prefixed framing, JSON envelopes, socket hops and
server threads — which must stay under ``MAX_OVERHEAD_MS`` per call.
The difference is recorded signed (a negative value means the wire side
happened to finish first), so it can move in both directions between
runs.  Timing is min-of-rounds on both sides, identically, so the
difference is not inflated by one noisy round.
``GATEWAY_BENCH_QUICK=1`` trims stream length for CI runners; the gates
are unchanged.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from repro.service import (
    GatewayClient,
    GatewayServer,
    ShardedQueryService,
    Tenant,
    canonical_answers,
    registry_from_specs,
    wire_workload,
)
from repro.systems.cache_example import make_cache_example

QUICK = os.environ.get("GATEWAY_BENCH_QUICK") == "1"
N_CLIENTS = 64
REQUESTS_PER_CLIENT = 2 if QUICK else 4
#: both sides replay cached answers, so rounds are cheap; min-of-rounds
#: still needs a few samples to dodge a noisy scheduling window.
ROUNDS = 3 if QUICK else 5
#: per-call ceiling on what framing + socket + server threads may add.
#: Measured ~0.3 ms/call on an idle core; 10 ms absorbs a loaded CI
#: runner while still catching a real per-call pathology (an extra
#: round-trip, a lost wakeup, accidental per-frame reconnects).
MAX_OVERHEAD_MS = 10.0
N_SUBJECTS = 4
SHARDS = 2
SEED = 23

SPECS = {f"cache-{i}": {"system": "cache_example", "n_samples": 40,
                        "max_condition_size": 2, "seed": SEED + i}
         for i in range(N_SUBJECTS)}


def _client_streams():
    """One deterministic mixed stream per client, subjects round-robin.

    The engines fitted here are only used to *enumerate* the workload
    (options, directions, repair scans); the answers under test all come
    from the one sharded service, so identity never rests on this local
    registry matching the shard workers bit-for-bit.
    """
    registry = registry_from_specs(SPECS)
    system = make_cache_example()
    subjects = sorted(SPECS)
    per_subject = {
        subject: wire_workload(subject, registry.get(subject).engine,
                               system.objectives, N_CLIENTS,
                               REQUESTS_PER_CLIENT,
                               seed=SEED + position)
        for position, subject in enumerate(subjects)}
    return [per_subject[subjects[i % len(subjects)]][i]
            for i in range(N_CLIENTS)]


def _concurrent_round(streams, submit):
    """One timed round: a thread per stream calls ``submit(index, stream)``.

    The direct baseline and the wire soak both run through here, so both
    sides pay the same thread start-up and the same concurrency.
    """
    answers: list[list | None] = [None] * len(streams)
    failures: list[str] = []

    def client(index: int) -> None:
        try:
            answers[index] = submit(index, streams[index])
        except Exception as exc:  # noqa: BLE001 - recorded availability loss
            failures.append(f"client {index}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=client, args=(i,),
                                name=f"gateway-bench-{i}")
               for i in range(len(streams))]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return answers, time.perf_counter() - started, failures


def test_gateway_identity_availability_and_overhead(results_recorder):
    streams = _client_streams()
    n_queries = sum(len(stream) for stream in streams)

    with ShardedQueryService(SPECS, shards=SHARDS, use_processes=False,
                             batch_window=0.002,
                             result_cache_size=1024) as service:
        # Warm pass: fills shard result caches so the timed direct rounds
        # and the wire soak both replay cached answers — the wall-clock
        # difference then isolates pure wire overhead.
        reference = [service.submit_many(stream) for stream in streams]
        assert all(r.ok for answers in reference for r in answers)

        direct_timings = []
        for _ in range(ROUNDS):
            direct, seconds, failures = _concurrent_round(
                streams, lambda index, stream: service.submit_many(stream))
            assert not failures, failures
            direct_timings.append(seconds)
        direct_seconds = float(np.min(direct_timings))
        for index, answers in enumerate(direct):
            assert (canonical_answers(answers)
                    == canonical_answers(reference[index]))

        def wire_submit(index, stream):
            with GatewayClient(gateway.address,
                               api_key=f"key-{index}") as conn:
                return conn.submit_many(stream)

        tenants = {f"key-{i}": Tenant(f"client-{i}")
                   for i in range(N_CLIENTS)}
        wire_timings = []
        answered = 0
        soak_failures: list[str] = []
        with GatewayServer(service, tenants=tenants,
                           recv_timeout=60.0) as gateway:
            for _ in range(ROUNDS):
                answers, seconds, failures = _concurrent_round(streams,
                                                               wire_submit)
                wire_timings.append(seconds)
                soak_failures.extend(failures)
                for index, stream_answers in enumerate(answers):
                    if stream_answers is None:
                        continue
                    answered += len(stream_answers)
                    # Byte-identity, every client, every round.
                    assert (canonical_answers(stream_answers)
                            == canonical_answers(reference[index]))
            gateway_stats = gateway.stats.as_dict()
        wire_seconds = float(np.min(wire_timings))

    availability = answered / (n_queries * ROUNDS)
    overhead_ms = (wire_seconds - direct_seconds) * 1e3 / n_queries
    payload = {
        "n_clients": N_CLIENTS,
        "n_queries": n_queries,
        "soak_rounds": ROUNDS,
        "direct_ms": direct_seconds * 1000.0,
        "wire_ms": wire_seconds * 1000.0,
        "throughput_qps": n_queries / wire_seconds,
        "gateway_overhead_ms": overhead_ms,
        "max_overhead_ms": MAX_OVERHEAD_MS,
        "gateway_availability": availability,
        "protocol_errors": gateway_stats["protocol_errors"],
        "client_failures": soak_failures,
        "quick": QUICK,
    }
    results_recorder("gateway_throughput", payload)
    print(f"\n{n_queries}-query wire soak, {N_CLIENTS} clients, "
          f"{ROUNDS} rounds: direct {payload['direct_ms']:.0f} ms vs wire "
          f"{payload['wire_ms']:.0f} ms -> {overhead_ms:.2f} ms/call "
          f"overhead ({payload['throughput_qps']:.0f} qps, availability "
          f"{availability:.3f}, {gateway_stats['protocol_errors']} "
          "protocol errors)")

    # The soak gates: every request answered, no wire violations, and
    # the per-call overhead of going through the gateway stays bounded.
    assert availability == 1.0, soak_failures
    assert gateway_stats["protocol_errors"] == 0
    assert gateway_stats["auth_failures"] == 0
    assert overhead_ms <= MAX_OVERHEAD_MS, (
        f"gateway adds {overhead_ms:.2f} ms/call "
        f"(direct {direct_seconds:.3f}s vs wire {wire_seconds:.3f}s)")
