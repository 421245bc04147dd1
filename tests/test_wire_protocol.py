"""Fuzz/conformance suite for the gateway wire protocol.

Three contracts from ISSUE 9, enforced with Hypothesis:

* **bitwise round trips** — every request/response dataclass survives
  ``*_to_wire`` → JSON → ``*_from_wire`` equal field for field (floats
  included: Python's shortest-repr JSON encoding is exact);
* **typed failure everywhere** — random byte mutations, truncated
  frames, oversize length prefixes and unknown ``protocol_version``
  values all raise :class:`~repro.service.protocol.ProtocolError` with a
  machine-readable code — never a bare ``KeyError``/``ValueError``,
  never a hang;
* **the server loop survives** — a live
  :class:`~repro.service.gateway.GatewayServer` fed garbage keeps
  serving well-formed peers afterwards, and leaks no threads
  (``threading.enumerate()`` before == after, the acceptance gate).
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.protocol import (
    HEADER,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ErrorCode,
    FrameDecoder,
    ProtocolError,
    decode_envelope,
    encode_envelope,
    encode_frame,
    error_envelope,
    read_frame,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
)
from repro.service.requests import (
    AceRequest,
    EffectRequest,
    PredictRequest,
    QueryResponse,
    RepairRequest,
    SatisfactionRequest,
)

# ----------------------------------------------------------------- strategies
_names = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF),
    min_size=1, max_size=12)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_pairs = st.lists(st.tuples(_names, _floats), max_size=4).map(tuple)
_str_pairs = st.lists(st.tuples(_names, _names), max_size=4).map(tuple)

_ace = st.builds(AceRequest, subject=_names, option=_names, objective=_names)
_predict = st.builds(PredictRequest, subject=_names, configuration=_pairs,
                     objectives=st.lists(_names, max_size=4).map(tuple))
_effect = st.builds(EffectRequest, subject=_names, objective=_names,
                    intervention=_pairs)
_satisfaction = st.builds(SatisfactionRequest, subject=_names,
                          objective=_names, direction=_names,
                          threshold=st.none() | _floats,
                          intervention=_pairs)
_repair = st.builds(RepairRequest, subject=_names, objectives=_str_pairs,
                    faulty_configuration=_pairs, faulty_measurement=_pairs,
                    max_repairs=st.integers(min_value=0, max_value=10_000))
_requests = st.one_of(_ace, _predict, _effect, _satisfaction, _repair)

_json_values = st.none() | _floats | _names | st.lists(_floats, max_size=4)
_responses = st.builds(
    QueryResponse, request=_requests, subject=_names,
    model_version=st.integers(min_value=-1, max_value=10**9),
    value=_json_values, batched=st.booleans(),
    batch_size=st.integers(min_value=1, max_value=512),
    dispatch_index=st.integers(min_value=0, max_value=511),
    latency_seconds=st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False),
    error=st.none() | _names)


def _json_round_trip(body: dict) -> dict:
    """Push a wire body through real JSON bytes, as the socket would."""
    return json.loads(json.dumps(body).encode("utf-8").decode("utf-8"))


# ---------------------------------------------------------------- round trips
@settings(max_examples=200, deadline=None)
@given(_requests)
def test_request_round_trip_bitwise(request):
    body = _json_round_trip(request_to_wire(request))
    assert request_from_wire(body) == request


@settings(max_examples=200, deadline=None)
@given(_responses)
def test_response_round_trip_bitwise(response):
    body = _json_round_trip(response_to_wire(response))
    decoded = response_from_wire(body)
    assert decoded == response
    assert decoded.canonical_value() == response.canonical_value()


@settings(max_examples=100, deadline=None)
@given(_requests)
def test_request_survives_full_envelope_framing(request):
    frame = encode_envelope({"op": "query",
                             "request": request_to_wire(request)})
    decoder = FrameDecoder()
    decoder.feed(frame)
    envelope = decode_envelope(decoder.next_frame())
    assert envelope["protocol_version"] == PROTOCOL_VERSION
    assert request_from_wire(envelope["request"]) == request
    decoder.close()  # no partial bytes may remain


@settings(max_examples=100, deadline=None)
@given(_requests, st.data())
def test_unknown_fields_are_tolerated(request, data):
    """Additive evolution: extra fields must be ignored, not fatal."""
    body = _json_round_trip(request_to_wire(request))
    extras = data.draw(st.dictionaries(
        st.text(min_size=13, max_size=20), _json_values, max_size=3))
    body.update(extras)
    assert request_from_wire(body) == request


# ------------------------------------------------------------- framing fuzzes
@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200), st.data())
def test_mutated_bytes_never_raise_untyped(payload, data):
    """A randomly corrupted frame either parses or fails typed."""
    frame = bytearray(encode_frame(payload))
    index = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    frame[index] ^= data.draw(st.integers(min_value=1, max_value=255))
    decoder = FrameDecoder()
    try:
        decoder.feed(bytes(frame))
        while decoder.next_frame() is not None:
            pass
        decoder.close()
    except ProtocolError as exc:
        assert exc.code in (ErrorCode.OVERSIZE_FRAME,
                            ErrorCode.TRUNCATED_FRAME)


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=1, max_size=100), st.data())
def test_truncated_frames_raise_typed(payload, data):
    frame = encode_frame(payload)
    # cut=0 would be a clean EOF at a frame boundary, not a truncation.
    cut = data.draw(st.integers(min_value=1, max_value=len(frame) - 1))
    decoder = FrameDecoder()
    decoder.feed(frame[:cut])
    assert decoder.next_frame() is None
    with pytest.raises(ProtocolError) as excinfo:
        decoder.close()
    assert excinfo.value.code == ErrorCode.TRUNCATED_FRAME


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=MAX_FRAME_BYTES + 1, max_value=2**32 - 1))
def test_oversize_prefix_rejected_before_buffering(length):
    decoder = FrameDecoder()
    decoder.feed(HEADER.pack(length))
    with pytest.raises(ProtocolError) as excinfo:
        decoder.next_frame()
    assert excinfo.value.code == ErrorCode.OVERSIZE_FRAME


def test_encode_frame_refuses_oversize_payload():
    with pytest.raises(ProtocolError) as excinfo:
        encode_frame(b"x" * 32, max_frame_bytes=16)
    assert excinfo.value.code == ErrorCode.OVERSIZE_FRAME


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=60), st.integers(min_value=1, max_value=7))
def test_read_frame_reassembles_any_chunking(payload, chunk_size):
    frame = encode_frame(payload)
    offsets = [0]

    def recv(n: int) -> bytes:
        start = offsets[0]
        chunk = frame[start:start + min(n, chunk_size)]
        offsets[0] = start + len(chunk)
        return chunk

    assert read_frame(recv) == payload
    assert read_frame(recv) is None  # clean EOF at the frame boundary


def test_read_frame_truncated_payload_is_typed():
    frame = encode_frame(b"hello world")[:-3]
    offsets = [0]

    def recv(n: int) -> bytes:
        start = offsets[0]
        chunk = frame[start:start + n]
        offsets[0] = start + len(chunk)
        return chunk

    with pytest.raises(ProtocolError) as excinfo:
        read_frame(recv)
    assert excinfo.value.code == ErrorCode.TRUNCATED_FRAME


# ------------------------------------------------------------ envelope fuzzes
@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200))
def test_arbitrary_payloads_fail_typed_or_parse(payload):
    try:
        envelope = decode_envelope(payload)
    except ProtocolError as exc:
        assert exc.code in (ErrorCode.BAD_JSON, ErrorCode.BAD_ENVELOPE,
                            ErrorCode.UNSUPPORTED_VERSION)
    else:
        assert envelope["protocol_version"] == PROTOCOL_VERSION


@settings(max_examples=100, deadline=None)
@given(st.none() | st.booleans() | st.text(max_size=8)
       | st.floats(allow_nan=False, allow_infinity=False)
       | st.integers().filter(lambda v: v != PROTOCOL_VERSION))
def test_unknown_protocol_versions_rejected(version):
    payload = json.dumps({"protocol_version": version,
                          "op": "ping"}).encode()
    with pytest.raises(ProtocolError) as excinfo:
        decode_envelope(payload)
    assert excinfo.value.code == ErrorCode.UNSUPPORTED_VERSION


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_number_tokens_are_bad_json(token):
    """``json.loads`` accepts these non-standard tokens; a NaN objective
    in an observe frame would reach the model, so the decoder refuses."""
    finite = (b'{"protocol_version": %d, "op": "observe", "subject": "s", '
              b'"measurements": [{"objectives": {"Latency": 1.5e3}}]}'
              % PROTOCOL_VERSION)
    assert decode_envelope(finite)["measurements"][0]["objectives"] == {
        "Latency": 1500.0}
    with pytest.raises(ProtocolError) as excinfo:
        decode_envelope(finite.replace(b"1.5e3", token.encode()))
    assert excinfo.value.code == ErrorCode.BAD_JSON
    with pytest.raises(ProtocolError) as excinfo:
        decode_envelope(b'{"protocol_version": %s, "op": "ping"}'
                        % token.encode())
    assert excinfo.value.code == ErrorCode.BAD_JSON


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=8),
                       st.none() | st.booleans() | st.text(max_size=8)
                       | st.integers() | st.lists(st.integers(), max_size=3),
                       max_size=5))
def test_malformed_request_bodies_fail_typed(body):
    try:
        request_from_wire(body)
    except ProtocolError as exc:
        assert exc.code == ErrorCode.BAD_REQUEST
    # a draw may legitimately decode (e.g. a valid ace body) — fine.


@settings(max_examples=200, deadline=None)
@given(st.none() | st.booleans() | st.integers() | st.text(max_size=8)
       | st.dictionaries(st.text(max_size=8),
                         st.none() | st.integers() | st.text(max_size=8),
                         max_size=4))
def test_malformed_response_bodies_fail_typed(body):
    try:
        response_from_wire(body)
    except ProtocolError as exc:
        assert exc.code in (ErrorCode.BAD_ENVELOPE, ErrorCode.BAD_REQUEST)


def test_error_envelope_shape():
    envelope = error_envelope(ErrorCode.DRAINING, "bye")
    assert envelope == {"protocol_version": PROTOCOL_VERSION, "ok": False,
                        "error": {"code": "draining", "message": "bye"}}


# ------------------------------------------------------- server-loop survival
@dataclass
class _StubStats:
    """Minimal stats surface the gateway's ``stats`` op serializes."""

    submitted: int = 0


class _EchoService:
    """A stand-in service answering every query with a fixed value.

    Keeps the protocol fuzz suite independent of model fitting: the
    gateway only needs ``submit``/``observe``/``stats``.
    """

    def __init__(self) -> None:
        self.stats = _StubStats()

    def submit(self, request, timeout=None):
        """Answer any request with value 1.0 at model version 0."""
        self.stats.submitted += 1
        return QueryResponse(request=request, subject=request.subject,
                             model_version=0, value=1.0)

    def observe(self, subject, measurements, block=True):
        """Acknowledge any observation batch at version 0."""
        return 0

    def close(self) -> None:
        """Nothing to tear down."""


def _exchange_raw(address, blob: bytes, timeout: float = 5.0) -> bytes:
    """Send raw bytes, half-close, and read whatever comes back."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(blob)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


@pytest.fixture()
def gateway():
    """A live gateway over the echo service, thread-leak audited."""
    from repro.service.gateway import GatewayServer

    before = set(threading.enumerate())
    server = GatewayServer(_EchoService(), recv_timeout=0.5)
    yield server
    server.close()
    leaked = set(threading.enumerate()) - before
    assert not leaked, f"gateway leaked threads: {leaked}"


def _ping_ok(address) -> bool:
    from repro.service.gateway import GatewayClient

    with GatewayClient(address, timeout=5.0) as client:
        return client.ping()


def test_server_survives_garbage_bytes(gateway):
    """Random junk gets a typed reply (or a close) — and the server
    keeps answering well-formed peers afterwards."""
    replies = _exchange_raw(gateway.address, b"\xff" * 64)
    if replies:
        decoder = FrameDecoder()
        decoder.feed(replies)
        envelope = json.loads(decoder.next_frame())
        assert envelope["ok"] is False
        assert envelope["error"]["code"] in (ErrorCode.OVERSIZE_FRAME,
                                             ErrorCode.TRUNCATED_FRAME)
    assert _ping_ok(gateway.address)


def test_server_survives_oversize_prefix(gateway):
    blob = struct.pack(">I", 2**31) + b"x" * 16
    replies = _exchange_raw(gateway.address, blob)
    decoder = FrameDecoder()
    decoder.feed(replies)
    envelope = json.loads(decoder.next_frame())
    assert envelope["error"]["code"] == ErrorCode.OVERSIZE_FRAME
    assert _ping_ok(gateway.address)


def test_server_survives_truncated_frame(gateway):
    frame = encode_envelope({"op": "ping"})
    replies = _exchange_raw(gateway.address, frame[:-2])
    decoder = FrameDecoder()
    decoder.feed(replies)
    envelope = json.loads(decoder.next_frame())
    assert envelope["error"]["code"] == ErrorCode.TRUNCATED_FRAME
    assert _ping_ok(gateway.address)


def test_server_survives_bad_json_and_bad_version(gateway):
    bad_json = encode_frame(b"{not json")
    replies = _exchange_raw(gateway.address, bad_json)
    decoder = FrameDecoder()
    decoder.feed(replies)
    envelope = json.loads(decoder.next_frame())
    assert envelope["error"]["code"] == ErrorCode.BAD_JSON

    future = encode_frame(json.dumps(
        {"protocol_version": 99, "op": "ping"}).encode())
    replies = _exchange_raw(gateway.address, future)
    decoder = FrameDecoder()
    decoder.feed(replies)
    envelope = json.loads(decoder.next_frame())
    assert envelope["error"]["code"] == ErrorCode.UNSUPPORTED_VERSION
    assert _ping_ok(gateway.address)


def test_server_survives_unknown_op_on_same_connection(gateway):
    """Body-level violations are per-request: the connection lives on."""
    blob = (encode_envelope({"op": "frobnicate"})
            + encode_envelope({"op": "ping"}))
    replies = _exchange_raw(gateway.address, blob)
    decoder = FrameDecoder()
    decoder.feed(replies)
    first = json.loads(decoder.next_frame())
    second = json.loads(decoder.next_frame())
    assert first["error"]["code"] == ErrorCode.UNKNOWN_OP
    assert second["ok"] is True


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=1, max_size=80))
def test_server_never_hangs_on_fuzzed_streams(blob):
    """Property form of the survival contract, one shared server."""
    from repro.service.gateway import GatewayServer

    server = _FUZZ_SERVER
    assert server is not None
    _exchange_raw(server.address, blob)
    assert _ping_ok(server.address)


_FUZZ_SERVER = None


@pytest.fixture(autouse=True, scope="module")
def _module_fuzz_server():
    """One long-lived server for the Hypothesis survival property (a
    fresh server per example would dominate runtime), plus the module's
    thread-leak audit."""
    from repro.service.gateway import GatewayServer

    global _FUZZ_SERVER
    before = set(threading.enumerate())
    _FUZZ_SERVER = GatewayServer(_EchoService(), recv_timeout=0.5)
    yield
    _FUZZ_SERVER.close()
    _FUZZ_SERVER = None
    leaked = set(threading.enumerate()) - before
    assert not leaked, f"wire-protocol suite leaked threads: {leaked}"
