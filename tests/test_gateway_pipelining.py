"""Pipelined gateway connections and the age-timed batch window.

A connection's reader admits every query frame as soon as it arrives and
a per-connection writer sends the replies in frame order, so frames one
client writes back to back coalesce in the service's batch window.  The
window itself is timed from the oldest pending request: a request that
already waited a window is dispatched without sleeping, a lone fresh one
still waits the whole window.

Every test drives a raw socket, so nothing on the client side reorders
or waits: the frames of a test are written in one ``sendall`` and the
replies are read back in arrival order.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.service import (
    EffectRequest,
    GatewayServer,
    ModelRegistry,
    QueryService,
    RequestBatcher,
    Tracer,
    canonical_answers,
)
from repro.service import service as service_module
from repro.service.protocol import (
    ErrorCode,
    FrameDecoder,
    encode_envelope,
    request_to_wire,
    response_from_wire,
)
from repro.service.store import measurement_to_dict
from repro.systems.cache_example import make_cache_example

SPEC = {"system": "cache_example", "n_samples": 40,
        "max_condition_size": 2, "seed": 0}


@pytest.fixture()
def leak_audit():
    """Assert the test leaves no ``gateway*`` thread — reader or writer —
    behind its connections."""
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


def _query_frame(request) -> bytes:
    return encode_envelope({"op": "query",
                            "request": request_to_wire(request)})


def _observe_frame(subject: str) -> bytes:
    system = make_cache_example()
    rng = np.random.default_rng(11)
    measurements = system.measure_many(
        system.space.sample_configurations(3, rng), rng=rng)
    return encode_envelope({
        "op": "observe", "subject": subject,
        "measurements": [measurement_to_dict(m) for m in measurements]})


def _replies(sock: socket.socket, n: int) -> list[dict]:
    """Read ``n`` reply envelopes, in arrival order."""
    decoder = FrameDecoder()
    replies: list[dict] = []
    while len(replies) < n:
        frame = decoder.next_frame()
        if frame is not None:
            replies.append(json.loads(frame))
            continue
        chunk = sock.recv(65536)
        assert chunk, f"connection closed after {len(replies)} replies"
        decoder.feed(chunk)
    return replies


def _answers(replies: list[dict]) -> list:
    assert all(reply["ok"] for reply in replies), replies
    return [response_from_wire(reply["response"]) for reply in replies]


# ------------------------------------------------------------ (a) ordering
def test_back_to_back_frames_coalesce_and_come_back_in_order(leak_audit):
    registry, subject = _fitted()
    requests = _requests(subject, 12)
    with QueryService(registry, batch_window=0.05) as service:
        with GatewayServer(service) as gateway:
            with socket.create_connection(gateway.address,
                                          timeout=30.0) as sock:
                sock.sendall(b"".join(_query_frame(r) for r in requests))
                answers = _answers(_replies(sock, len(requests)))
        stats = service.stats_snapshot()
    assert [a.request for a in answers] == requests
    reference, key = _fitted()
    expected = RequestBatcher().serial_dispatch(reference.get(key), requests)
    assert canonical_answers(answers) == canonical_answers(expected)
    # One connection's frames met in one batch window.
    assert stats.max_batch_observed > 1
    assert stats.dispatches < len(requests)


# ------------------------------------------------- (b) observe is a barrier
def test_observe_runs_after_earlier_replies_are_written(leak_audit):
    registry, subject = _fitted()
    before, after = _requests(subject, 6), _requests(subject, 1)
    # A long window: had the observe not waited for the earlier replies,
    # it would fold while those queries still sat in the window.
    with QueryService(registry, batch_window=0.2) as service:
        with GatewayServer(service) as gateway:
            with socket.create_connection(gateway.address,
                                          timeout=30.0) as sock:
                sock.sendall(b"".join(_query_frame(r) for r in before)
                             + _observe_frame(subject)
                             + _query_frame(after[0]))
                replies = _replies(sock, len(before) + 2)
    first, ack, last = (_answers(replies[:len(before)]), replies[len(before)],
                        _answers(replies[len(before) + 1:]))
    assert ack["ok"] and ack["op"] == "observe"
    assert ack["version"] > 0
    assert [a.model_version for a in first] == [0] * len(before)
    assert last[0].model_version == ack["version"]


# ------------------------------------------------------------ (c) draining
def test_drain_answers_admitted_pipelined_frames(leak_audit):
    registry, subject = _fitted()
    admitted, late = _requests(subject, 5), _requests(subject, 3)
    with QueryService(registry, batch_window=0.3) as service:
        with GatewayServer(service) as gateway:
            with socket.create_connection(gateway.address,
                                          timeout=30.0) as sock:
                sock.sendall(b"".join(_query_frame(r) for r in admitted))
                deadline = time.monotonic() + 10.0
                while (service.stats_snapshot().submitted < len(admitted)
                       and time.monotonic() < deadline):
                    time.sleep(0.002)
                assert service.stats_snapshot().unsettled == len(admitted), \
                    "the admitted frames were not in flight at the drain"
                gateway.drain()
                sock.sendall(b"".join(_query_frame(r) for r in late))
                replies = _replies(sock, len(admitted) + len(late))
            gateway.close()
            stats = gateway.stats
    assert [a.request for a in _answers(replies[:len(admitted)])] == admitted
    assert [r["error"]["code"] for r in replies[len(admitted):]] == \
        [ErrorCode.DRAINING] * len(late)
    assert stats.answered == len(admitted)
    assert stats.draining_rejections == len(late)


# ---------------------------------------------------- (d) framing failures
def test_framing_error_after_good_frames(leak_audit):
    registry, subject = _fitted()
    requests = _requests(subject, 4)
    with QueryService(registry, batch_window=0.05) as service:
        with GatewayServer(service) as gateway:
            with socket.create_connection(gateway.address,
                                          timeout=30.0) as sock:
                sock.sendall(b"".join(_query_frame(r) for r in requests)
                             + struct.pack(">I", 2**31) + b"x" * 16)
                replies = _replies(sock, len(requests) + 1)
                assert sock.recv(65536) == b"", "connection stayed open"
            assert gateway.stats.protocol_errors == 1
    assert [a.request for a in _answers(replies[:-1])] == requests
    assert replies[-1]["ok"] is False
    assert replies[-1]["error"]["code"] == ErrorCode.OVERSIZE_FRAME


# ----------------------------------------------------------- (e) admission
def test_admission_refusal_takes_its_own_slot(leak_audit):
    registry, subject = _fitted()
    requests = _requests(subject, 4)
    with QueryService(registry, batch_window=0.3, max_pending=2) as service:
        with GatewayServer(service) as gateway:
            with socket.create_connection(gateway.address,
                                          timeout=30.0) as sock:
                sock.sendall(b"".join(_query_frame(r) for r in requests))
                replies = _replies(sock, len(requests))
            assert gateway.stats.admission_rejections == 2
    assert [a.request for a in _answers(replies[:2])] == requests[:2]
    assert [r["error"]["code"] for r in replies[2:]] == \
        [ErrorCode.ADMISSION] * 2


# -------------------------------------------------------- (f) window rule
@pytest.fixture()
def dispatcher_sleeps(monkeypatch):
    """The delays the service dispatcher asks ``time.sleep`` for (other
    threads' sleeps pass through unrecorded)."""
    delays: list[float] = []
    real_sleep = time.sleep

    def recording_sleep(seconds):
        if threading.current_thread().name == "query-service-dispatcher":
            delays.append(seconds)
        real_sleep(seconds)

    monkeypatch.setattr(service_module.time, "sleep", recording_sleep)
    return delays


def test_window_is_timed_from_the_oldest_request(dispatcher_sleeps):
    registry, subject = _fitted()
    request = _requests(subject, 1)[0]
    window = 0.2
    tracer = Tracer(enabled=True)
    # A request older than the window is dispatched without sleeping.
    service = QueryService(registry, batch_window=window, auto_start=False,
                           tracer=tracer)
    try:
        future = service.submit_async(request)
        time.sleep(window * 1.5)
        service.start()
        assert future.result(timeout=30.0).ok
    finally:
        service.close()
    assert dispatcher_sleeps == []
    (stale,) = tracer.drain()
    assert 0.0 <= stale.batch_wait_seconds < window / 4

    # A lone fresh request on an idle service waits the full window.
    with QueryService(registry, batch_window=window, tracer=tracer) as fresh:
        assert fresh.submit(request, timeout=30.0).ok
    (delay,) = dispatcher_sleeps
    assert window / 2 < delay <= window
    (trace,) = tracer.drain()
    # The traced batch wait is the wait that happened, not the setting.
    assert trace.batch_wait_seconds == pytest.approx(delay, abs=0.05)
