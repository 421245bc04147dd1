"""Adversarial tests of the wire gateway: hostile peers and failures.

Covers the fault surface ISSUE 9 demands of the gateway:

* **slow-loris partial writes** — a peer that stalls mid-frame past
  ``recv_timeout`` is dropped with a typed truncation error, counted in
  stats, without affecting other connections;
* **client disconnect mid-request** — the server finishes the request,
  fails the write, and cleans the connection up without leaking threads;
* **bad/missing API keys and quota exhaustion** — typed
  :class:`~repro.service.gateway.GatewayAuthError` /
  :class:`~repro.service.gateway.QuotaExceededError` rejections, each
  counted in :class:`~repro.service.gateway.GatewayStats` (and per
  tenant);
* **drain during in-flight work** — the in-flight request settles and
  delivers its answer while new connections and new requests get typed
  ``draining`` errors, deterministically (event-gated, no sleeps on the
  assert path);
* **non-finite observe input** — a JSON number such as ``1e400`` parses
  to ``inf``; the observation is refused with a typed ``bad_request``,
  counted as a protocol error, and leaves the model untouched;
* **ShardedServiceStats counter invariants through the wire** —
  synthesized error responses (crash requeue-budget exhaustion) and
  close-time settlements are counted in ``errors`` / ``closed_errors``,
  never double-counted as ``answered``, when the traffic arrives through
  :class:`~repro.service.gateway.GatewayClient` connections.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np
import pytest

from repro.service import (
    DrainingError,
    EffectRequest,
    GatewayAuthError,
    GatewayClient,
    GatewayServer,
    ModelRegistry,
    QueryResponse,
    QueryService,
    QuotaExceededError,
    ShardedQueryService,
    Tenant,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ErrorCode,
    FrameDecoder,
    encode_envelope,
    encode_frame,
)
from repro.service.store import measurement_to_dict
from repro.systems.cache_example import make_cache_example

REQUEST = EffectRequest.of("cache-a", "Throughput", {"CachePolicy": 0.0})
SPEC = {"system": "cache_example", "n_samples": 40,
        "max_condition_size": 2, "seed": 0}


@dataclass
class _StubStats:
    """Minimal stats surface for the gateway's ``stats`` op."""

    submitted: int = 0


class _EchoService:
    """Instant stand-in service: every query answers value 1.0."""

    def __init__(self) -> None:
        self.stats = _StubStats()

    def submit_async(self, request):
        """Answer immediately with a fixed value, as a resolved future."""
        self.stats.submitted += 1
        future = Future()
        future.set_result(QueryResponse(request=request,
                                        subject=request.subject,
                                        model_version=0, value=1.0))
        return future

    def observe(self, subject, measurements, block=True):
        """Acknowledge any batch at version 0."""
        return 0


class _BlockingService(_EchoService):
    """A service whose answers wait until released — the handle the
    drain/disconnect tests use to hold a request in flight
    deterministically."""

    def __init__(self) -> None:
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def submit_async(self, request):
        """Signal entry; the future answers 42.0 once :attr:`release`
        is set."""
        self.stats.submitted += 1
        self.entered.set()
        future = Future()

        def answer():
            assert self.release.wait(30.0), "test never released the request"
            future.set_result(QueryResponse(request=request,
                                            subject=request.subject,
                                            model_version=0, value=42.0))

        threading.Thread(target=answer, name="blocking-service-answer",
                         daemon=True).start()
        return future


@pytest.fixture()
def leak_audit():
    """Assert the test leaves no gateway threads behind.

    Only ``gateway-*`` threads are audited: the sharded service's
    multiprocessing queues park ``QueueFeederThread``s whose teardown is
    garbage-collection-timed, not gateway behaviour.
    """
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        leaked = {t for t in set(threading.enumerate()) - before
                  if t.name.startswith("gateway")}
        if not leaked:
            return
        time.sleep(0.01)
    assert not leaked, f"gateway leaked threads: {leaked}"


# ----------------------------------------------------------------- slow loris
def test_slow_loris_stall_is_dropped_typed(leak_audit):
    service = _EchoService()
    with GatewayServer(service, recv_timeout=0.25) as gateway:
        frame = encode_envelope({"op": "ping"})
        with socket.create_connection(gateway.address, timeout=10.0) as sock:
            sock.sendall(frame[:5])  # ...and never the rest
            sock.settimeout(10.0)
            received = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        decoder = FrameDecoder()
        decoder.feed(received)
        envelope = json.loads(decoder.next_frame())
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == ErrorCode.TRUNCATED_FRAME
        assert gateway.stats.protocol_errors == 1
        # The loris took down only its own connection.
        with GatewayClient(gateway.address) as client:
            assert client.ping()


def test_idle_connection_survives_recv_timeout(leak_audit):
    """The stall guard must not kill peers idling *between* frames."""
    service = _EchoService()
    with GatewayServer(service, recv_timeout=0.2) as gateway:
        with GatewayClient(gateway.address) as client:
            assert client.ping()
            time.sleep(0.5)  # several timeout periods of boundary idle
            assert client.ping()


# ------------------------------------------------------ disconnect mid-request
def test_client_disconnect_mid_request_is_cleaned_up(leak_audit):
    service = _BlockingService()
    with GatewayServer(service) as gateway:
        sock = socket.create_connection(gateway.address, timeout=10.0)
        sock.sendall(encode_envelope(
            {"op": "query",
             "request": {"kind": "effect", "subject": "cache-a",
                         "objective": "Throughput",
                         "intervention": [["CachePolicy", 0.0]]}}))
        assert service.entered.wait(10.0), "request never reached service"
        sock.close()  # hang up while the request is executing
        service.release.set()
        # The handler finishes, fails its write, and the connection is
        # reaped; the gateway keeps serving.
        deadline = time.monotonic() + 10.0
        while gateway.n_connections() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert gateway.n_connections() == 0
        with GatewayClient(gateway.address) as client:
            assert client.submit(REQUEST).value == 42.0


# --------------------------------------------------------------- auth + quota
def test_bad_and_missing_api_keys_rejected_typed(leak_audit):
    service = _EchoService()
    tenants = {"good-key": "alice"}
    with GatewayServer(service, tenants=tenants) as gateway:
        with GatewayClient(gateway.address, api_key="wrong") as client:
            with pytest.raises(GatewayAuthError):
                client.submit(REQUEST)
        with GatewayClient(gateway.address) as client:  # no key at all
            with pytest.raises(GatewayAuthError):
                client.submit(REQUEST)
        assert gateway.stats.auth_failures == 2
        assert gateway.stats.queries == 0  # refusals are not admissions
        # The real tenant is unaffected.
        with GatewayClient(gateway.address, api_key="good-key") as client:
            assert client.submit(REQUEST).value == 1.0
        assert gateway.stats.per_tenant == {
            "alice": {"submitted": 1, "answered": 1, "errors": 0,
                      "rejected": 0, "observes": 0}}


def test_quota_exhaustion_rejected_typed_and_counted(leak_audit):
    service = _EchoService()
    tenants = {"k": Tenant("bob", quota=3)}
    with GatewayServer(service, tenants=tenants) as gateway:
        with GatewayClient(gateway.address, api_key="k") as client:
            for _ in range(3):
                assert client.submit(REQUEST).value == 1.0
            for _ in range(2):
                with pytest.raises(QuotaExceededError):
                    client.submit(REQUEST)
            # Quota guards queries, not health probes.
            assert client.ping()
        assert gateway.stats.quota_rejections == 2
        assert gateway.stats.per_tenant["bob"]["submitted"] == 3
        assert gateway.stats.per_tenant["bob"]["rejected"] == 2
        assert service.stats.submitted == 3  # nothing leaked past quota


# -------------------------------------------------------------------- drain
def test_drain_during_in_flight_settles_deterministically(leak_audit):
    service = _BlockingService()
    results: dict = {}
    with GatewayServer(service) as gateway:
        def client_thread():
            with GatewayClient(gateway.address, timeout=30.0) as conn:
                try:
                    results["response"] = conn.submit(REQUEST)
                except Exception as exc:  # noqa: BLE001 - recorded
                    results["raised"] = exc

        worker = threading.Thread(target=client_thread)
        worker.start()
        assert service.entered.wait(10.0), "request never reached service"
        gateway.drain()  # the request above is now in flight

        # New connections are refused with a typed error...
        with GatewayClient(gateway.address, timeout=10.0) as refused:
            with pytest.raises(DrainingError):
                refused.submit(REQUEST)
        # ...and so are new requests on a pre-drain connection — but the
        # in-flight request settles and delivers its answer.
        service.release.set()
        worker.join(15.0)
        assert not worker.is_alive()
        assert "raised" not in results
        assert results["response"].value == 42.0
        assert gateway.stats.answered == 1
        assert gateway.stats.draining_rejections >= 1


def test_new_request_on_existing_connection_rejected_during_drain(leak_audit):
    service = _EchoService()
    with GatewayServer(service) as gateway:
        with GatewayClient(gateway.address) as client:
            assert client.submit(REQUEST).value == 1.0
            gateway.drain()
            with pytest.raises(DrainingError):
                client.submit(REQUEST)
            assert client.ping()  # health probes keep working


# ------------------------------------------------------- non-finite observe
def _inf_observe_frame(subject):
    """A wire ``observe`` frame whose one objective is the ``1e400``
    literal — valid JSON that parses to ``inf``."""
    system = make_cache_example()
    rng = np.random.default_rng(5)
    measurement = system.measure_many(
        system.space.sample_configurations(1, rng), rng=rng)[0]
    payload = measurement_to_dict(measurement)
    objective = next(iter(payload["objectives"]))
    payload["objectives"][objective] = 4242.5
    frame = json.dumps({"protocol_version": PROTOCOL_VERSION, "op": "observe",
                        "subject": subject,
                        "measurements": [payload]}).encode()
    assert frame.count(b"4242.5") == 1
    return encode_frame(frame.replace(b"4242.5", b"1e400"))


def _exchange_raw(address, frame):
    """Send one raw frame, half-close, and decode the reply envelope."""
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(frame)
        sock.shutdown(socket.SHUT_WR)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    decoder = FrameDecoder()
    decoder.feed(received)
    return json.loads(decoder.next_frame())


def test_non_finite_observe_is_bad_request_and_leaves_model(leak_audit):
    """``1e400`` is valid JSON that parses to ``inf``: the gateway answers
    ``bad_request`` (not ``internal``), the model version does not move,
    and every answer before and after is byte-identical."""
    registry = ModelRegistry(capacity=1)
    entry = registry.get_or_fit(SPEC)
    frame = _inf_observe_frame(entry.key)
    requests = [EffectRequest.of(entry.key, "Throughput",
                                 {"CachePolicy": value})
                for value in (0.0, 1.0)]
    with QueryService(registry) as service:
        with GatewayServer(service) as gateway:
            with GatewayClient(gateway.address) as client:
                before = [client.submit(r) for r in requests]
            envelope = _exchange_raw(gateway.address, frame)
            assert envelope["ok"] is False
            assert envelope["error"]["code"] == ErrorCode.BAD_REQUEST
            assert gateway.stats.protocol_errors == 1
            assert gateway.stats.internal_errors == 0
            assert gateway.stats.observes == 0
            with GatewayClient(gateway.address) as client:
                after = [client.submit(r) for r in requests]
    assert entry.version == 0
    assert [r.model_version for r in after] == \
        [r.model_version for r in before] == [0, 0]
    assert [r.canonical_value() for r in after] == \
        [r.canonical_value() for r in before]


def test_non_finite_observe_over_sharded_service_is_bad_request(leak_audit):
    """The same ``1e400`` frame over a :class:`ShardedQueryService` is
    refused at the parent boundary: ``bad_request`` rather than the
    ``internal`` a worker-side failure used to surface as, nothing
    journaled, and answers unchanged."""
    requests = [REQUEST,
                EffectRequest.of("cache-a", "Throughput",
                                 {"CachePolicy": 1.0})]
    with ShardedQueryService({"cache-a": dict(SPEC)}, shards=1,
                             use_processes=False) as service:
        shard = service._shards[0]
        with GatewayServer(service) as gateway:
            with GatewayClient(gateway.address) as client:
                before = [client.submit(r) for r in requests]
            envelope = _exchange_raw(gateway.address,
                                     _inf_observe_frame("cache-a"))
            assert envelope["ok"] is False
            assert envelope["error"]["code"] == ErrorCode.BAD_REQUEST
            assert gateway.stats.protocol_errors == 1
            assert gateway.stats.internal_errors == 0
            assert gateway.stats.observes == 0
            with GatewayClient(gateway.address) as client:
                after = [client.submit(r) for r in requests]
        assert shard.journal == []
    assert [r.model_version for r in after] == \
        [r.model_version for r in before]
    assert [r.canonical_value() for r in after] == \
        [r.canonical_value() for r in before]


def test_gateway_metrics_over_sharded_service(leak_audit):
    """The ``metrics`` verb over a sharded service: after two bursts and
    a ``worker_stats()`` probe, the parent-side gauges are settled and the
    fleet cache traffic equals the workers' own counters.  A pipelined
    burst coalesces, so its repeats never reach a cache; the second burst
    is what the workers' result caches answer."""
    specs = {f"cache-{i}": dict(SPEC, seed=i) for i in range(3)}
    requests = [EffectRequest.of(subject, "Throughput",
                                 {"CachePolicy": float(value % 2)})
                for value in range(8) for subject in sorted(specs)]
    with ShardedQueryService(specs, shards=2,
                             use_processes=False) as service:
        with GatewayServer(service) as gateway:
            with GatewayClient(gateway.address) as client:
                for _ in range(2):
                    assert all(r.ok for r in client.submit_many(requests))
                workers = service.worker_stats(timeout=60)
                metrics = client.metrics()
    assert metrics["submitted"] == metrics["answered"] == 2 * len(requests)
    assert metrics["in_flight"] == 0
    assert metrics["queue_depth"] == 0
    assert metrics["cache_hits"] == sum(w["cache_hits"] for w in workers)
    assert metrics["cache_misses"] == \
        sum(w["cache_misses"] for w in workers)
    assert metrics["cache_hits"] > 0 and metrics["cache_misses"] > 0


@pytest.mark.slow
def test_synthesized_errors_never_double_counted_through_gateway(leak_audit):
    """Crash → requeue-budget exhaustion through the wire: the
    synthesized error response reaches the client as a delivered answer
    with ``response.error`` set, and the sharded tier counts it in
    ``errors`` — never in ``answered``."""
    specs = {"cache-a": dict(SPEC)}
    with ShardedQueryService(specs, shards=1, use_processes=False,
                             max_requeues=0) as service:
        with GatewayServer(service) as gateway:
            with GatewayClient(gateway.address, timeout=120.0) as client:
                healthy = client.submit(REQUEST)
                assert healthy.ok
                service._inject_crash(0)
                failed = client.submit(REQUEST)
                assert not failed.ok
                assert "requeued" in failed.error
                # The respawned shard keeps serving, same answers.
                recovered = client.submit_many([REQUEST] * 3)
                assert all(r.ok for r in recovered)
                assert all(r.value == healthy.value for r in recovered)
                wire_stats = client.stats()
            gateway_stats = gateway.stats

        stats = service.stats
        assert stats.errors == 1
        assert stats.answered == 4
        # The settlement invariant: every admitted request is answered
        # XOR error-settled — synthesized failures are not successes.
        assert stats.answered + stats.errors == stats.submitted == 5
        # The gateway delivered all five envelopes, flagging the one
        # carrying an error surface.
        assert gateway_stats.answered == 5
        assert gateway_stats.response_errors == 1
        assert gateway_stats.protocol_errors == 0
        assert wire_stats["service"]["errors"] == 1
        assert wire_stats["service"]["answered"] == 4


@pytest.mark.slow
def test_closed_errors_counted_not_answered_through_gateway(leak_audit):
    """A shard that fails permanently with a wire request in flight
    settles the request as a ``closed_errors`` entry (surfaced to the
    client as a typed ``draining`` rejection), never as an answer.

    Determinism: the monitor's respawn is gated on an event, so the wire
    request is provably in flight (admitted, routed to the dead worker)
    before the poisoned respawn is allowed to fail the shard.
    """
    specs = {"cache-a": dict(SPEC)}
    results: dict = {}
    with ShardedQueryService(specs, shards=1,
                             use_processes=False) as service:
        with GatewayServer(service) as gateway:
            with GatewayClient(gateway.address, timeout=120.0) as warm:
                assert warm.submit(REQUEST).ok

            respawn_entered = threading.Event()
            proceed = threading.Event()
            original_respawn = service._respawn

            def gated_respawn(shard):
                """Let the test park a request before the respawn fails."""
                respawn_entered.set()
                assert proceed.wait(60.0), "test never released respawn"
                return original_respawn(shard)

            service._respawn = gated_respawn
            shard = service._shards[0]
            shard.subjects["cache-a"] = {"system": "no-such-system"}
            service._inject_crash(0)
            assert respawn_entered.wait(60.0), "monitor never respawned"

            def client_thread():
                with GatewayClient(gateway.address, timeout=120.0) as conn:
                    try:
                        results["response"] = conn.submit(REQUEST)
                    except Exception as exc:  # noqa: BLE001 - recorded
                        results["raised"] = exc

            worker = threading.Thread(target=client_thread)
            worker.start()
            deadline = time.monotonic() + 60.0
            while service.stats.submitted < 2 \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service.stats.submitted == 2, "request never admitted"
            proceed.set()  # the poisoned respawn now fails the shard
            worker.join(60.0)
            assert not worker.is_alive()
            # New wire requests are refused typed, not hung.
            with GatewayClient(gateway.address, timeout=30.0) as conn:
                with pytest.raises(DrainingError):
                    conn.submit(REQUEST)
    assert isinstance(results.get("raised"), DrainingError)
    stats = service.stats
    assert stats.closed_errors == 1
    assert stats.answered == 1  # the warm-up answer only
    assert stats.errors == 0
    # The settlement invariant through the wire: admitted == answered
    # XOR error-settled XOR closed-settled; no double counting.
    assert stats.answered + stats.errors + stats.closed_errors \
        == stats.submitted == 2
