"""The serving gateway's wire protocol: framing, envelopes, codecs.

Everything that crosses the gateway's socket is a **frame**: a 4-byte
big-endian length prefix followed by that many bytes of UTF-8 JSON.  The
JSON document is an **envelope** — a dict carrying an explicit
``protocol_version``, an operation name, and an operation body whose
request/response payloads are the :mod:`repro.service.requests`
dataclasses rendered through the ``*_to_wire`` / ``*_from_wire`` codecs
below.  Three properties are load-bearing:

* **Exactness** — floats survive the JSON round trip bit for bit
  (Python's ``json`` uses shortest-repr encoding), so a
  :class:`~repro.service.requests.QueryResponse` decoded from the wire
  answers :meth:`~repro.service.requests.QueryResponse.canonical_value`
  byte-identically to the in-process original.  This is what lets the
  gateway benchmark gate wire answers against direct ``submit()`` calls.
* **Versioning with unknown-field tolerance** — every envelope names its
  ``protocol_version``; a peer speaking an *unknown* version is rejected
  with a typed :class:`ProtocolError`, while unknown *fields* inside a
  known version are ignored, so additive evolution never breaks old
  peers.
* **Typed failure** — malformed bytes, oversize or truncated frames,
  non-JSON payloads, unknown kinds: every way a frame can be wrong
  raises :class:`ProtocolError` with a machine-readable ``code`` (never
  a bare ``KeyError``/``ValueError``, never a hang), which is what the
  fuzz suite in ``tests/test_wire_protocol.py`` enforces.
"""

from __future__ import annotations

import json
import struct
from typing import Callable, Mapping

from repro.service.requests import (
    AceRequest,
    EffectRequest,
    PredictRequest,
    QueryRequest,
    QueryResponse,
    RepairRequest,
    SatisfactionRequest,
)

#: Version stamped on (and demanded of) every envelope this peer speaks.
PROTOCOL_VERSION = 1

#: Length-prefix layout: one unsigned 32-bit big-endian integer.
HEADER = struct.Struct(">I")

#: Ceiling on a single frame's payload size.  A length prefix above this
#: is rejected *before* any allocation — a hostile or corrupt prefix
#: (e.g. 4 GiB) must not make the server try to buffer it.
MAX_FRAME_BYTES = 8 * 1024 * 1024


class ErrorCode:
    """Machine-readable reasons a frame or request was rejected.

    Carried by :class:`ProtocolError` and by the ``error.code`` field of
    error envelopes, so clients can react per cause (back off on
    ``ADMISSION``, re-authenticate on ``UNAUTHORIZED``, fail over on
    ``DRAINING``) instead of parsing prose.
    """

    #: framing: prefix declares more than :data:`MAX_FRAME_BYTES`.
    OVERSIZE_FRAME = "oversize_frame"
    #: framing: stream ended mid-frame (truncated prefix or payload).
    TRUNCATED_FRAME = "truncated_frame"
    #: payload is not valid UTF-8 JSON.
    BAD_JSON = "bad_json"
    #: payload parsed but is not a well-formed envelope/body.
    BAD_ENVELOPE = "bad_envelope"
    #: envelope names a protocol version this peer does not speak.
    UNSUPPORTED_VERSION = "unsupported_version"
    #: envelope names an operation this peer does not serve.
    UNKNOWN_OP = "unknown_op"
    #: request body failed to decode into a typed request.
    BAD_REQUEST = "bad_request"
    #: missing or unrecognised API key.
    UNAUTHORIZED = "unauthorized"
    #: the tenant's request quota is exhausted.
    QUOTA_EXCEEDED = "quota_exceeded"
    #: the service's bounded in-flight queue rejected the submission.
    ADMISSION = "admission"
    #: the request names a subject no registry holds.
    UNKNOWN_SUBJECT = "unknown_subject"
    #: the gateway is draining: in-flight work settles, new work is
    #: refused with this code.
    DRAINING = "draining"
    #: unexpected server-side failure (the envelope was well-formed).
    INTERNAL = "internal"


class ProtocolError(RuntimeError):
    """A wire-level violation, carrying a typed :class:`ErrorCode`.

    Parameters
    ----------
    code:
        One of the :class:`ErrorCode` constants.
    message:
        Human-readable detail.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = str(code)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProtocolError({self.code!r}, {self.args[0]!r})"


# ------------------------------------------------------------------ framing
def encode_frame(payload: bytes,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Prefix a payload with its 4-byte big-endian length.

    Raises
    ------
    ProtocolError
        With :data:`ErrorCode.OVERSIZE_FRAME` if the payload exceeds
        ``max_frame_bytes`` (refusing to *send* an oversize frame keeps
        a compliant peer from tripping the receiver's guard).
    """
    if len(payload) > max_frame_bytes:
        raise ProtocolError(
            ErrorCode.OVERSIZE_FRAME,
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_frame_bytes}-byte frame ceiling")
    return HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame reassembly over an arbitrarily chopped stream.

    Sockets deliver bytes in whatever chunks the kernel felt like; feed
    every chunk in with :meth:`feed` and take complete frames out with
    :meth:`next_frame`.  The decoder validates the length prefix as soon
    as its four bytes arrive, so an oversize declaration is rejected
    before any payload is buffered, and :meth:`close` turns a stream
    that ended mid-frame into a typed truncation error instead of a
    silent partial message.

    Parameters
    ----------
    max_frame_bytes:
        Per-frame payload ceiling (see :data:`MAX_FRAME_BYTES`).
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = int(max_frame_bytes)
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        """Append freshly received bytes to the reassembly buffer."""
        self._buffer.extend(data)

    def pending_bytes(self) -> int:
        """Bytes buffered but not yet consumed as a complete frame."""
        return len(self._buffer)

    def next_frame(self) -> bytes | None:
        """Pop one complete frame payload, or ``None`` if more bytes are
        needed.

        Raises
        ------
        ProtocolError
            With :data:`ErrorCode.OVERSIZE_FRAME` when the length prefix
            declares more than ``max_frame_bytes``.
        """
        if len(self._buffer) < HEADER.size:
            return None
        (length,) = HEADER.unpack_from(self._buffer)
        if length > self.max_frame_bytes:
            raise ProtocolError(
                ErrorCode.OVERSIZE_FRAME,
                f"peer declared a {length}-byte frame; ceiling is "
                f"{self.max_frame_bytes} bytes")
        if len(self._buffer) < HEADER.size + length:
            return None
        payload = bytes(self._buffer[HEADER.size:HEADER.size + length])
        del self._buffer[:HEADER.size + length]
        return payload

    def close(self) -> None:
        """Declare end-of-stream; a partial frame left in the buffer is a
        truncation.

        Raises
        ------
        ProtocolError
            With :data:`ErrorCode.TRUNCATED_FRAME` if buffered bytes
            remain.
        """
        if self._buffer:
            raise ProtocolError(
                ErrorCode.TRUNCATED_FRAME,
                f"stream ended with {len(self._buffer)} bytes of an "
                "incomplete frame")


def read_frame(recv: Callable[[int], bytes],
               max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes | None:
    """Read exactly one frame through a ``recv(n) -> bytes`` callable.

    Returns the frame payload, or ``None`` on a clean end-of-stream
    (EOF landing exactly on a frame boundary — how a peer hangs up
    politely).

    Raises
    ------
    ProtocolError
        :data:`ErrorCode.TRUNCATED_FRAME` if the stream ends mid-prefix
        or mid-payload; :data:`ErrorCode.OVERSIZE_FRAME` if the prefix
        declares more than ``max_frame_bytes``.
    """
    header = _read_exact(recv, HEADER.size, allow_clean_eof=True)
    if header is None:
        return None
    (length,) = HEADER.unpack(header)
    if length > max_frame_bytes:
        raise ProtocolError(
            ErrorCode.OVERSIZE_FRAME,
            f"peer declared a {length}-byte frame; ceiling is "
            f"{max_frame_bytes} bytes")
    payload = _read_exact(recv, length, allow_clean_eof=False)
    return b"" if payload is None else payload


def _read_exact(recv: Callable[[int], bytes], n: int,
                allow_clean_eof: bool) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on clean EOF at offset zero."""
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = recv(remaining)
        if not chunk:
            if not chunks and allow_clean_eof:
                return None
            got = n - remaining
            raise ProtocolError(
                ErrorCode.TRUNCATED_FRAME,
                f"stream ended after {got} of {n} expected bytes")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------- envelopes
def encode_envelope(envelope: Mapping,
                    max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize an envelope dict into one complete frame (prefix + JSON).

    The version stamp is added here if the caller did not set one, so
    every frame on the wire is versioned by construction.
    """
    document = dict(envelope)
    document.setdefault("protocol_version", PROTOCOL_VERSION)
    payload = json.dumps(document, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return encode_frame(payload, max_frame_bytes=max_frame_bytes)


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite number {token} is not allowed")


#: Strict JSON decoder: Python's ``json`` accepts the ``NaN``,
#: ``Infinity`` and ``-Infinity`` tokens by default; here they fail the
#: parse.  The hook runs only when such a token appears, so normal frames
#: decode exactly as with ``json.loads``.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def decode_envelope(payload: bytes) -> dict:
    """Parse and validate one frame payload into an envelope dict.

    Raises
    ------
    ProtocolError
        :data:`ErrorCode.BAD_JSON` if the payload is not UTF-8 JSON, or
        holds a ``NaN``/``Infinity`` token (non-standard JSON that would
        let a non-finite measurement onto the model);
        :data:`ErrorCode.BAD_ENVELOPE` if it is JSON but not a dict;
        :data:`ErrorCode.UNSUPPORTED_VERSION` if ``protocol_version`` is
        missing, non-integral, or not a version this peer speaks.
    """
    try:
        document = _DECODER.decode(payload.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError, hook
        raise ProtocolError(ErrorCode.BAD_JSON,
                            f"frame payload is not JSON: {exc}") from None
    if not isinstance(document, dict):
        raise ProtocolError(
            ErrorCode.BAD_ENVELOPE,
            f"envelope must be an object, got {type(document).__name__}")
    version = document.get("protocol_version")
    if not isinstance(version, int) or isinstance(version, bool) \
            or version != PROTOCOL_VERSION:
        raise ProtocolError(
            ErrorCode.UNSUPPORTED_VERSION,
            f"peer speaks protocol version {version!r}; this peer "
            f"speaks {PROTOCOL_VERSION}")
    return document


def error_envelope(code: str, message: str) -> dict:
    """Build the typed error reply envelope of a failed operation."""
    return {"protocol_version": PROTOCOL_VERSION, "ok": False,
            "error": {"code": str(code), "message": str(message)}}


# ----------------------------------------------------------- request codecs
#: wire-kind tag -> request class, the decode dispatch table.
REQUEST_TYPES: dict[str, type[QueryRequest]] = {
    "ace": AceRequest,
    "predict": PredictRequest,
    "effect": EffectRequest,
    "satisfaction": SatisfactionRequest,
    "repair": RepairRequest,
}


def _pairs_to_wire(pairs) -> list[list]:
    """Tuple-of-pairs field in JSON-safe list-of-[key, value] form."""
    return [[k, v] for k, v in pairs]


def _pairs_from_wire(value, field: str, kind: str,
                     value_type: type = float) -> tuple:
    """Rebuild a tuple-of-pairs field, validating shape and types."""
    if not isinstance(value, list):
        raise ProtocolError(
            ErrorCode.BAD_REQUEST,
            f"{kind} request field {field!r} must be a list of pairs, "
            f"got {type(value).__name__}")
    pairs = []
    for item in value:
        if not isinstance(item, (list, tuple)) or len(item) != 2 \
                or not isinstance(item[0], str):
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"{kind} request field {field!r} holds a malformed pair: "
                f"{item!r}")
        try:
            pairs.append((item[0], value_type(item[1])))
        except (TypeError, ValueError):
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"{kind} request field {field!r} pair value "
                f"{item[1]!r} is not a {value_type.__name__}") from None
    return tuple(pairs)


def _field(body: Mapping, field: str, kind: str, expected: type):
    """Fetch and type-check one required scalar field of a request body."""
    value = body.get(field)
    if not isinstance(value, expected) or (expected is not bool
                                           and isinstance(value, bool)):
        raise ProtocolError(
            ErrorCode.BAD_REQUEST,
            f"{kind} request field {field!r} must be "
            f"{expected.__name__}, got {type(value).__name__}")
    return value


def request_to_wire(request: QueryRequest) -> dict:
    """Render one typed request as its JSON-safe wire body.

    The body carries a ``kind`` tag plus the dataclass fields, with
    tuple-of-pairs fields as lists of ``[key, value]`` lists.  The codec
    is exact: :func:`request_from_wire` rebuilds an ``==``-equal
    dataclass, so item keys (and therefore canonical answers) survive
    the wire bitwise.
    """
    body: dict = {"kind": request.kind.value, "subject": request.subject}
    if isinstance(request, AceRequest):
        body.update(option=request.option, objective=request.objective)
    elif isinstance(request, PredictRequest):
        body.update(configuration=_pairs_to_wire(request.configuration),
                    objectives=list(request.objectives))
    elif isinstance(request, EffectRequest):
        body.update(objective=request.objective,
                    intervention=_pairs_to_wire(request.intervention))
    elif isinstance(request, SatisfactionRequest):
        body.update(objective=request.objective,
                    direction=request.direction,
                    threshold=request.threshold,
                    intervention=_pairs_to_wire(request.intervention))
    elif isinstance(request, RepairRequest):
        body.update(
            objectives=_pairs_to_wire(request.objectives),
            faulty_configuration=_pairs_to_wire(
                request.faulty_configuration),
            faulty_measurement=_pairs_to_wire(request.faulty_measurement),
            max_repairs=request.max_repairs)
    else:  # pragma: no cover - new request kinds must extend the codec
        raise ProtocolError(ErrorCode.BAD_REQUEST,
                            f"no wire codec for {type(request).__name__}")
    return body


def request_from_wire(body: Mapping) -> QueryRequest:
    """Rebuild a typed request from its wire body.

    Unknown fields are ignored (forward tolerance); missing or
    mis-typed known fields raise a typed :class:`ProtocolError` with
    :data:`ErrorCode.BAD_REQUEST` rather than leaking ``KeyError``.
    """
    if not isinstance(body, Mapping):
        raise ProtocolError(
            ErrorCode.BAD_REQUEST,
            f"request body must be an object, got {type(body).__name__}")
    kind = body.get("kind")
    cls = REQUEST_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ProtocolError(ErrorCode.BAD_REQUEST,
                            f"unknown request kind {kind!r}; known kinds: "
                            f"{sorted(REQUEST_TYPES)}")
    subject = _field(body, "subject", kind, str)
    if cls is AceRequest:
        return AceRequest(subject=subject,
                          option=_field(body, "option", kind, str),
                          objective=_field(body, "objective", kind, str))
    if cls is PredictRequest:
        objectives = _field(body, "objectives", kind, list)
        if not all(isinstance(o, str) for o in objectives):
            raise ProtocolError(ErrorCode.BAD_REQUEST,
                                f"{kind} request objectives must all be "
                                f"strings: {objectives!r}")
        return PredictRequest(
            subject=subject,
            configuration=_pairs_from_wire(body.get("configuration"),
                                           "configuration", kind),
            objectives=tuple(objectives))
    if cls is EffectRequest:
        return EffectRequest(
            subject=subject,
            objective=_field(body, "objective", kind, str),
            intervention=_pairs_from_wire(body.get("intervention"),
                                          "intervention", kind))
    if cls is SatisfactionRequest:
        threshold = body.get("threshold")
        if threshold is not None and (isinstance(threshold, bool)
                                      or not isinstance(threshold,
                                                        (int, float))):
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"{kind} request threshold must be a number or null, "
                f"got {type(threshold).__name__}")
        return SatisfactionRequest(
            subject=subject,
            objective=_field(body, "objective", kind, str),
            direction=_field(body, "direction", kind, str),
            threshold=None if threshold is None else float(threshold),
            intervention=_pairs_from_wire(body.get("intervention"),
                                          "intervention", kind))
    max_repairs = body.get("max_repairs")
    if isinstance(max_repairs, bool) or not isinstance(max_repairs, int):
        raise ProtocolError(
            ErrorCode.BAD_REQUEST,
            f"{kind} request max_repairs must be an integer, got "
            f"{type(max_repairs).__name__}")
    return RepairRequest(
        subject=subject,
        objectives=_pairs_from_wire(body.get("objectives"), "objectives",
                                    kind, value_type=str),
        faulty_configuration=_pairs_from_wire(
            body.get("faulty_configuration"), "faulty_configuration", kind),
        faulty_measurement=_pairs_from_wire(
            body.get("faulty_measurement"), "faulty_measurement", kind),
        max_repairs=max_repairs)


# ---------------------------------------------------------- response codecs
def response_to_wire(response: QueryResponse) -> dict:
    """Render one :class:`QueryResponse` as its JSON-safe wire body.

    The answered request rides along (re-encoded through
    :func:`request_to_wire`) so the client-side response object can
    reproduce :meth:`~repro.service.requests.QueryResponse.
    canonical_value` — whose ``item`` component is derived from the
    request — byte-identically.
    """
    return {
        "request": request_to_wire(response.request),
        "subject": response.subject,
        "model_version": response.model_version,
        "value": response.value,
        "batched": response.batched,
        "batch_size": response.batch_size,
        "dispatch_index": response.dispatch_index,
        "latency_seconds": response.latency_seconds,
        "error": response.error,
    }


def response_from_wire(body: Mapping) -> QueryResponse:
    """Rebuild a :class:`QueryResponse` from its wire body.

    Unknown fields are ignored; malformed known fields raise
    :class:`ProtocolError` with :data:`ErrorCode.BAD_ENVELOPE`.
    """
    if not isinstance(body, Mapping):
        raise ProtocolError(
            ErrorCode.BAD_ENVELOPE,
            f"response body must be an object, got {type(body).__name__}")
    try:
        request = request_from_wire(body.get("request"))
    except ProtocolError as exc:
        raise ProtocolError(
            ErrorCode.BAD_ENVELOPE,
            f"response carries an undecodable request: {exc}") from None
    model_version = body.get("model_version")
    if isinstance(model_version, bool) \
            or not isinstance(model_version, int):
        raise ProtocolError(ErrorCode.BAD_ENVELOPE,
                            "response model_version must be an integer, "
                            f"got {model_version!r}")
    error = body.get("error")
    if error is not None and not isinstance(error, str):
        raise ProtocolError(ErrorCode.BAD_ENVELOPE,
                            "response error must be a string or null, "
                            f"got {type(error).__name__}")
    subject = body.get("subject")
    try:
        batch_size = int(body.get("batch_size", 1))
        dispatch_index = int(body.get("dispatch_index", 0))
        latency_seconds = float(body.get("latency_seconds", 0.0))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(ErrorCode.BAD_ENVELOPE,
                            f"malformed response metadata: {exc}") from None
    return QueryResponse(
        request=request,
        subject=subject if isinstance(subject, str) else request.subject,
        model_version=model_version,
        value=body.get("value"),
        batched=bool(body.get("batched", False)),
        batch_size=batch_size,
        dispatch_index=dispatch_index,
        latency_seconds=latency_seconds,
        error=error)
