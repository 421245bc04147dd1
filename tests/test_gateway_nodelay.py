"""Gateway connections do not wait on Nagle's algorithm.

With pipelined connections a reply (or a client frame) is often written
while the previous one on the same connection is still unacknowledged.
Nagle's algorithm would hold it until the peer's ACK arrives, and a peer
past TCP quick-ACK delays that ACK by up to 40 ms.  Both ends therefore
set ``TCP_NODELAY``, and ``GatewayClient.submit_many`` writes a whole
batch with one ``sendall``.
"""

from __future__ import annotations

import socket
import statistics
import time

from repro.service import (
    EffectRequest,
    GatewayClient,
    GatewayServer,
    ModelRegistry,
    QueryService,
    RequestBatcher,
    canonical_answers,
)

SPEC = {"system": "cache_example", "n_samples": 40,
        "max_condition_size": 2, "seed": 0}


def _fitted():
    """A registry holding the one fitted subject, and its key."""
    registry = ModelRegistry(capacity=1)
    return registry, registry.get_or_fit(SPEC).key


def _requests(subject: str, n: int) -> list:
    """``n`` (at most 16) distinct effect queries against ``subject``."""
    return [EffectRequest.of(subject, "Throughput",
                             {"CachePolicy": float(k % 4),
                              "WorkingSetSize": float(16 << (k // 4))})
            for k in range(n)]


def _nodelay(sock) -> int:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


class _CountingSocket:
    """A socket proxy that counts ``sendall`` calls."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self.sendall_calls = 0

    def sendall(self, data) -> None:
        self.sendall_calls += 1
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_both_ends_of_a_gateway_connection_disable_nagle():
    registry, _ = _fitted()
    with QueryService(registry) as service:
        with GatewayServer(service) as gateway:
            with GatewayClient(gateway.address, timeout=30.0) as client:
                # One exchange: the connection's reader has started.
                assert client.ping()
                (conn,) = gateway._connections.values()
                assert _nodelay(conn.sock) != 0
                assert _nodelay(client._sock) != 0


def test_pipelined_bursts_on_a_warm_connection_beat_delayed_ack():
    registry, subject = _fitted()
    requests = _requests(subject, 16)
    with QueryService(registry) as service:
        with GatewayServer(service) as gateway:
            with GatewayClient(gateway.address, timeout=30.0) as client:
                # Past TCP quick-ACK: from here on the kernel delays the
                # ACK of a lone segment, which a Nagle hold waits for.
                for k in range(24):
                    client.submit(requests[k % len(requests)])
                seconds = []
                for k in range(10):
                    burst = requests[4 * (k % 4):4 * (k % 4) + 4]
                    started = time.perf_counter()
                    answers = client.submit_many(burst)
                    seconds.append(time.perf_counter() - started)
                    assert [a.request for a in answers] == burst
    # The delayed-ACK floor is 40 ms; an unheld burst takes a few ms.
    assert statistics.median(seconds) < 0.020, seconds


def test_submit_many_sends_a_batch_in_one_write():
    registry, subject = _fitted()
    requests = _requests(subject, 6)
    with QueryService(registry) as service:
        with GatewayServer(service) as gateway:
            with GatewayClient(gateway.address, timeout=30.0) as client:
                counting = client._sock = _CountingSocket(client._sock)
                first = client.submit_many(requests[:4])
                assert counting.sendall_calls == 1
                second = client.submit_many(requests[4:])
                assert counting.sendall_calls == 2
    answers = first + second
    assert [a.request for a in answers] == requests
    reference, key = _fitted()
    expected = RequestBatcher().serial_dispatch(reference.get(key), requests)
    assert canonical_answers(answers) == canonical_answers(expected)
