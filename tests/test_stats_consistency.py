"""Regression tests: stats snapshots are internally consistent mid-burst.

Before ISSUE 10, ``QueryService.stats`` counters were mutated with bare
``+=`` on the dispatcher and client threads while readers (the gateway's
``stats`` verb, monitoring loops) read the same object unlocked — a
snapshot taken mid-burst could observe ``answered`` already incremented
for work whose ``submitted`` increment it missed, i.e. report more
settled requests than were ever admitted.  All mutations now happen
under one stats lock and readers use ``stats_snapshot()``, which copies
under the same lock.

These tests hammer the snapshot path from a dedicated reader thread
while a 64-client burst is in flight and assert the invariant

    answered + cancelled + errors + closed_errors <= submitted

holds for *every* observed snapshot, on the single-process service and
on the sharded fleet, plus the quiescent-end bookkeeping equalities.  At
quiescence the inequality is an identity on both tiers — every admitted
request settles as exactly one of the four outcomes — even after a
cancelled request, a failed dispatch round and a close() with work still
queued.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.unicorn import Unicorn, UnicornConfig
from repro.service import (
    EffectRequest,
    ModelRegistry,
    QueryService,
    ServiceClosedError,
    ShardedQueryService,
    mixed_workload,
)
from repro.systems.cache_example import make_cache_example

SUBJECT = "cache"
N_CLIENTS = 64
PER_CLIENT = 2


@pytest.fixture(scope="module")
def served():
    """A fitted registry plus a 128-request workload for 64 clients."""
    system = make_cache_example()
    unicorn = Unicorn(system, UnicornConfig(
        initial_samples=100, budget=400, max_condition_size=2, seed=3,
        batched_queries=True))
    registry = ModelRegistry(capacity=4)
    entry = registry.register(SUBJECT, unicorn)
    requests = mixed_workload(SUBJECT, entry.engine, system.objectives,
                              N_CLIENTS * PER_CLIENT, seed=17,
                              max_repairs=24)
    return registry, requests


@pytest.fixture
def fast_switching():
    """Switch threads every 10 µs so lost updates have room to happen."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _hammer_snapshots(snapshot, stop: threading.Event) -> list:
    """Collect snapshots as fast as possible until ``stop`` is set."""
    seen = []
    while not stop.is_set():
        seen.append(snapshot())
    seen.append(snapshot())  # one guaranteed post-burst snapshot
    return seen


def _burst(service, requests, n_clients: int) -> None:
    """Submit the workload from ``n_clients`` concurrent threads."""
    per_client = len(requests) // n_clients
    barrier = threading.Barrier(n_clients)

    def client(worker: int) -> None:
        barrier.wait()
        lo = worker * per_client
        for request in requests[lo:lo + per_client]:
            assert service.submit(request).ok

    threads = [threading.Thread(target=client, args=(w,))
               for w in range(n_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def test_service_snapshots_never_overcount_mid_burst(served, fast_switching):
    registry, requests = served
    with QueryService(registry, batch_window=0.001) as service:
        stop = threading.Event()
        collected: list = []
        reader = threading.Thread(
            target=lambda: collected.extend(
                _hammer_snapshots(service.stats_snapshot, stop)))
        reader.start()
        _burst(service, requests, N_CLIENTS)
        stop.set()
        reader.join()

    assert len(collected) >= 2
    for stats in collected:
        settled = (stats.answered + stats.cancelled + stats.errors
                   + stats.closed_errors)
        assert settled <= stats.submitted, (
            f"snapshot overcounts: {settled} settled vs "
            f"{stats.submitted} submitted ({stats})")
        assert sum(stats.per_subject.values()) <= stats.answered
    final = collected[-1]
    assert final.submitted == len(requests)
    assert final.answered == len(requests)


def test_sharded_snapshots_never_overcount_mid_burst(fast_switching):
    specs = {f"cache-{i}": {"system": "cache_example", "n_samples": 40,
                            "max_condition_size": 2, "seed": i}
             for i in range(3)}
    with ShardedQueryService(specs, shards=2,
                             use_processes=False) as service:
        reference = service.worker_stats()  # warm the fleet
        assert len(reference) == 2
        from repro.service import registry_from_specs

        reference_registry = registry_from_specs(specs)
        objectives = make_cache_example().objectives
        requests = []
        for subject in sorted(specs):
            requests.extend(mixed_workload(
                subject, reference_registry.get(subject).engine,
                objectives, 16, seed=7, max_repairs=24))

        stop = threading.Event()
        collected: list = []
        reader = threading.Thread(
            target=lambda: collected.extend(
                _hammer_snapshots(service.stats_snapshot, stop)))
        reader.start()
        _burst(service, requests, 16)
        stop.set()
        reader.join()

    for stats in collected:
        settled = (stats.answered + stats.cancelled + stats.errors
                   + stats.closed_errors)
        assert settled <= stats.submitted, (
            f"snapshot overcounts: {settled} settled vs "
            f"{stats.submitted} submitted ({stats})")
        assert sum(stats.per_shard_answered.values()) <= stats.answered
    final = collected[-1]
    assert final.submitted == len(requests) == final.answered


def test_snapshot_is_a_copy_not_a_view(served):
    registry, requests = served
    with QueryService(registry, batch_window=0.001) as service:
        assert service.submit(requests[0]).ok
        snapshot = service.stats_snapshot()
        before = snapshot.answered
        for request in requests[1:9]:
            assert service.submit(request).ok
        assert snapshot.answered == before  # later traffic can't mutate it
        snapshot.per_subject["bogus"] = 999
        assert "bogus" not in service.stats_snapshot().per_subject


def _outcome(future):
    """A settled future's outcome: its response, or the closed error."""
    try:
        return future.result(timeout=60)
    except ServiceClosedError:
        return "closed"


def _query_service_events(served) -> tuple[QueryService, int]:
    """Cancel, fail a round and close with work queued on QueryService;
    returns the service and how many requests were really answered."""
    registry, requests = served
    request = requests[0]
    service = QueryService(registry, batch_window=0.0, auto_start=False)
    # 1. A request cancelled while queued; its round-mate is answered.
    doomed = service.submit_async(request)
    survivor = service.submit_async(request)
    assert doomed.cancel()
    service.start()
    assert survivor.result(timeout=60).ok
    # 2. A failed dispatch round settles its request as an error.
    answer = service.batcher.answer

    def broken(*args, **kwargs):
        raise RuntimeError("injected dispatch failure")

    service.batcher.answer = broken
    assert not service.submit(request, timeout=60).ok
    # 3. close() while the dispatcher is stuck in a round and more work
    # is queued behind it: the queued work settles as closed errors, the
    # stuck round is answered once it finishes.
    entered, release = threading.Event(), threading.Event()

    def stuck(*args, **kwargs):
        entered.set()
        release.wait(timeout=60)
        return answer(*args, **kwargs)

    service.batcher.answer = stuck
    in_round = service.submit_async(request)
    assert entered.wait(timeout=60)
    queued = [service.submit_async(request) for _ in range(3)]
    service.close(timeout=0.05)
    assert all(_outcome(future) == "closed" for future in queued)
    release.set()
    assert in_round.result(timeout=60).ok
    service._thread.join(timeout=60)
    assert not service._thread.is_alive()
    return service, 2


def _sharded_service_events(served) -> tuple[ShardedQueryService, int]:
    """The same three events on a thread-mode sharded service."""
    specs = {SUBJECT: {"system": "cache_example", "n_samples": 40,
                       "max_condition_size": 2, "seed": 0}}
    request = EffectRequest.of(SUBJECT, "Throughput", {"CachePolicy": 0.0})
    service = ShardedQueryService(specs, shards=1, use_processes=False,
                                  max_requeues=0)
    shard = service._shards[0]
    # 1. A request cancelled while queued (the sender is parked).
    with shard.cv:
        shard.paused = True
    doomed = service.submit_async(request)
    survivor = service.submit_async(request)
    assert doomed.cancel()
    with shard.cv:
        shard.paused = False
        shard.cv.notify_all()
    assert survivor.result(timeout=60).ok
    # 2. A failed round: requeue-budget exhaustion after a worker crash.
    service._inject_crash(0)
    assert not service.submit(request, timeout=60).ok
    # 3. close() with work still queued on the outbox.
    with shard.cv:
        shard.paused = True
    queued = [service.submit_async(request) for _ in range(3)]
    service.close(timeout=30)
    outcomes = [_outcome(future) for future in queued]
    assert all(outcome == "closed" or outcome.ok for outcome in outcomes)
    return service, 1 + sum(outcome != "closed" for outcome in outcomes)


@pytest.mark.parametrize("events", [_query_service_events,
                                    _sharded_service_events],
                         ids=["QueryService", "ShardedQueryService"])
def test_settlement_identity_at_quiescence(served, events):
    service, answered = events(served)
    deadline = time.monotonic() + 30
    while service.n_pending and time.monotonic() < deadline:
        time.sleep(0.01)
    stats = service.stats_snapshot()
    # A cancelled request is cancelled, not also answered.
    assert stats.cancelled == 1
    assert stats.answered == answered
    # A failed round counts its request as an error.
    assert stats.errors == 1
    assert (stats.answered + stats.errors + stats.cancelled
            + stats.closed_errors) == stats.submitted, stats
    assert service.metrics_snapshot().in_flight == 0
