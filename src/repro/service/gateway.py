"""The network front door of the serving tier.

:class:`GatewayServer` puts a :class:`~repro.service.service.QueryService`
or :class:`~repro.service.sharding.ShardedQueryService` behind a real
socket: a threaded TCP server speaking the length-prefixed JSON protocol
of :mod:`repro.service.protocol`, with the policies a multi-tenant wire
tier needs and the in-process tier could not express:

* **Per-tenant API keys** — every request envelope carries an
  ``api_key``; unknown or missing keys are refused with a typed
  ``unauthorized`` error (anonymous mode, ``tenants=None``, keeps small
  demos friction-free).
* **Per-tenant quotas** — each tenant may carry a lifetime query budget;
  exhaustion is a typed ``quota_exceeded`` rejection, counted per
  tenant in :class:`GatewayStats`, never a dropped connection.
* **Streaming ``observe()`` ingestion** — measurement batches flow
  through the same framed connection and are acknowledged with the
  subject's post-fold model version, so a wire client can drive the
  drift-refresh lifecycle exactly like an in-process caller.
* **Graceful drain** — :meth:`GatewayServer.close` stops admitting
  (``draining`` typed errors on new connections and new requests) while
  requests already executing settle and their responses are delivered;
  only then do the sockets come down.

Answers cross the wire byte-identically: the response codec carries the
request and the exact float values, so
:meth:`~repro.service.requests.QueryResponse.canonical_value` of a
:class:`GatewayClient` answer equals the in-process answer — the gateway
benchmark gates on it.

:class:`GatewayClient` is the reference client: one connection, framed
request/response exchanges (pipelined by :meth:`GatewayClient.
submit_many`), typed exceptions mapped back from error envelopes
(:class:`GatewayAuthError`, :class:`QuotaExceededError`,
:class:`DrainingError`, and the service's own
:class:`~repro.service.service.AdmissionError` /
:class:`~repro.service.registry.UnknownSubjectError` for full surface
symmetry with in-process submission).
"""

from __future__ import annotations

import dataclasses
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ErrorCode,
    FrameDecoder,
    ProtocolError,
    decode_envelope,
    encode_envelope,
    error_envelope,
    read_frame,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
)
from repro.service.registry import InvalidMeasurementError, UnknownSubjectError
from repro.service.requests import QueryRequest, QueryResponse
from repro.service.service import AdmissionError, ServiceClosedError
from repro.service.store import measurement_from_dict, measurement_to_dict


class GatewayError(RuntimeError):
    """A typed gateway-level failure, mirroring a wire error envelope.

    Parameters
    ----------
    code:
        The :class:`~repro.service.protocol.ErrorCode` constant the
        server answered with (or a client-side code such as
        ``"closed"``).
    message:
        Human-readable detail.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = str(code)


class GatewayAuthError(GatewayError):
    """The request's API key was missing or unknown."""


class QuotaExceededError(GatewayError):
    """The tenant's lifetime query quota is exhausted."""


class DrainingError(GatewayError):
    """The gateway is draining and refused new work."""


@dataclass
class Tenant:
    """One tenant's identity and admission policy.

    Parameters
    ----------
    name:
        Display name used in per-tenant accounting.
    quota:
        Lifetime query budget (``None`` = unlimited).  Observe batches
        and stats/ping probes do not consume quota — the budget guards
        engine work.
    """

    name: str
    quota: int | None = None


@dataclass
class GatewayStats:
    """Counters describing one gateway's lifetime of wire traffic.

    ``per_tenant`` maps tenant name to a dict with ``submitted``,
    ``answered``, ``errors`` (answers whose ``response.error`` was set),
    ``rejected`` (auth/quota/draining/admission refusals) and
    ``observes`` — the per-tenant admission accounting the quota policy
    runs on.
    """

    connections: int = 0
    frames: int = 0
    queries: int = 0
    answered: int = 0
    #: answers delivered with a non-``None`` ``response.error`` surface.
    response_errors: int = 0
    observes: int = 0
    observed_measurements: int = 0
    #: framing/JSON/envelope/version/body violations (the fuzz surface).
    protocol_errors: int = 0
    auth_failures: int = 0
    quota_rejections: int = 0
    draining_rejections: int = 0
    admission_rejections: int = 0
    unknown_subjects: int = 0
    internal_errors: int = 0
    per_tenant: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-safe snapshot (what the ``stats`` wire op returns)."""
        return dataclasses.asdict(self)


class _Reject(Exception):
    """Internal control flow: a typed refusal to be sent as an error
    envelope (never escapes the handler loop)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class _Connection:
    """Server-side per-connection state: socket, handler thread, flags."""

    def __init__(self, sock: socket.socket, address) -> None:
        self.sock = sock
        self.address = address
        self.thread: threading.Thread | None = None
        #: ``True`` while a frame is being processed (an in-flight
        #: request a drain must let settle).
        self.busy = False


def _tenant_of(value) -> Tenant:
    """Coerce a tenants-mapping value into a :class:`Tenant`."""
    if isinstance(value, Tenant):
        return value
    if isinstance(value, str):
        return Tenant(name=value)
    if isinstance(value, Mapping):
        quota = value.get("quota")
        return Tenant(name=str(value.get("name", "tenant")),
                      quota=None if quota is None else int(quota))
    raise ValueError(f"cannot build a Tenant from {value!r}")


class GatewayServer:
    """Threaded wire-protocol server fronting one query service.

    Parameters
    ----------
    service:
        A started :class:`~repro.service.service.QueryService` or
        :class:`~repro.service.sharding.ShardedQueryService` (anything
        with ``submit``, ``observe`` and a ``stats`` dataclass).  The
        gateway does not own the service's lifecycle: closing the
        gateway drains the wire but leaves the service running.
    tenants:
        ``api_key -> tenant`` mapping (values may be :class:`Tenant`
        objects, plain names, or ``{"name": ..., "quota": ...}`` dicts).
        ``None`` disables authentication: every request is accounted to
        an unlimited ``"anonymous"`` tenant.
    host, port:
        Bind address; port 0 (default) picks a free ephemeral port —
        read the bound address back from :attr:`address`.
    max_frame_bytes:
        Per-frame payload ceiling enforced on both directions.
    recv_timeout:
        Seconds a connection may stall *mid-frame* before it is dropped
        as a slow-loris writer.  Idle connections between frames are
        not affected.
    request_timeout:
        Seconds the handler waits for the service to answer one query.
    auto_start:
        Bind and serve immediately; pass ``False`` to :meth:`start`
        later.

    Examples
    --------
    >>> with GatewayServer(service, tenants={"k1": "alice"}) as gw:
    ...     client = GatewayClient(gw.address, api_key="k1")  # doctest: +SKIP
    """

    def __init__(self, service, tenants: Mapping[str, object] | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 recv_timeout: float = 30.0,
                 request_timeout: float | None = 300.0,
                 auto_start: bool = True) -> None:
        self.service = service
        self.max_frame_bytes = int(max_frame_bytes)
        self.recv_timeout = float(recv_timeout)
        self.request_timeout = request_timeout
        self.stats = GatewayStats()
        self._tenants = (None if tenants is None
                         else {str(key): _tenant_of(value)
                               for key, value in tenants.items()})
        self._anonymous = Tenant(name="anonymous")
        self._host = str(host)
        self._port = int(port)
        self._lock = threading.Lock()
        self._draining = False
        self._closed = False
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: dict[int, _Connection] = {}
        self._next_connection_id = 0
        #: tenant name -> remaining quota (None = unlimited).
        self._remaining: dict[str, int | None] = {}
        if auto_start:
            self.start()

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Bind the listener and start accepting connections (idempotent)."""
        with self._lock:
            if self._closed:
                raise ServiceClosedError("gateway already closed")
            if self._listener is not None:
                return
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            listener.listen(64)
            # Short accept timeout so the loop notices drain/close fast.
            listener.settimeout(0.1)
            self._listener = listener
            self._port = listener.getsockname()[1]
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="gateway-accept", daemon=True)
            self._accept_thread.start()

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the gateway is bound to."""
        return (self._host, self._port)

    @property
    def draining(self) -> bool:
        """Whether the gateway is refusing new work."""
        with self._lock:
            return self._draining

    def n_connections(self) -> int:
        """Currently open client connections."""
        with self._lock:
            return len(self._connections)

    def drain(self) -> None:
        """Stop admitting new work; in-flight requests keep settling.

        From this point every *new* query/observe — on existing
        connections or brand-new ones — receives a typed ``draining``
        error envelope, while requests already executing complete and
        deliver their responses.  ``ping`` and ``stats`` keep working so
        health checks can watch the drain.
        """
        with self._lock:
            self._draining = True

    def close(self, timeout: float | None = 10.0) -> None:
        """Drain, let in-flight requests settle, then tear the wire down.

        The sequence is: (1) :meth:`drain` — new work is refused with
        typed errors but connections stay up; (2) wait up to ``timeout``
        for busy handlers to finish delivering their responses; (3)
        close the listener and every connection and join all gateway
        threads.  The underlying service is left running (it has its own
        ``close``).
        """
        with self._lock:
            if self._closed:
                return
            self._draining = True
        deadline = (None if timeout is None
                    else time.monotonic() + float(timeout))
        # (2) let in-flight requests settle.
        while True:
            with self._lock:
                busy = any(conn.busy for conn in self._connections.values())
            if not busy:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(0.005)
        with self._lock:
            self._closed = True
            listener = self._listener
            self._listener = None
            connections = list(self._connections.values())
        if listener is not None:
            listener.close()
        for conn in connections:
            _shutdown_socket(conn.sock)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for conn in connections:
            if conn.thread is not None:
                conn.thread.join(timeout=5.0)

    def __enter__(self) -> "GatewayServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- accepting
    def _accept_loop(self) -> None:
        """Accept connections until closed; drain-refuse while draining."""
        while True:
            with self._lock:
                if self._closed or self._listener is None:
                    return
                listener = self._listener
            try:
                sock, address = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us: shutdown
            with self._lock:
                if self._draining:
                    self.stats.draining_rejections += 1
                    refused = True
                else:
                    refused = False
                    self.stats.connections += 1
                    self._next_connection_id += 1
                    conn = _Connection(sock, address)
                    self._connections[self._next_connection_id] = conn
                    conn_id = self._next_connection_id
            if refused:
                # A typed goodbye instead of a slammed door: the client
                # can fail over to another replica.  Half-close and
                # briefly drain the peer's pending bytes so the error
                # envelope is delivered instead of being clobbered by a
                # reset when the peer is mid-send.
                try:
                    sock.sendall(encode_envelope(error_envelope(
                        ErrorCode.DRAINING,
                        "gateway is draining; retry elsewhere"),
                        max_frame_bytes=self.max_frame_bytes))
                    sock.shutdown(socket.SHUT_WR)
                    sock.settimeout(0.5)
                    while sock.recv(4096):
                        pass
                except OSError:
                    pass
                sock.close()
                continue
            conn.thread = threading.Thread(
                target=self._serve_connection, args=(conn_id, conn),
                name=f"gateway-conn-{conn_id}", daemon=True)
            conn.thread.start()

    # --------------------------------------------------------------- serving
    def _serve_connection(self, conn_id: int, conn: _Connection) -> None:
        """Per-connection loop: reassemble frames, answer each in order."""
        sock = conn.sock
        sock.settimeout(self.recv_timeout)
        decoder = FrameDecoder(self.max_frame_bytes)
        try:
            while True:
                frame = self._next_frame(sock, decoder)
                if frame is None:
                    return
                with self._lock:
                    self.stats.frames += 1
                    conn.busy = True
                try:
                    reply = self._handle_frame(frame)
                finally:
                    with self._lock:
                        conn.busy = False
                sock.sendall(encode_envelope(
                    reply, max_frame_bytes=self.max_frame_bytes))
        except ProtocolError as exc:
            with self._lock:
                self.stats.protocol_errors += 1
            # Best effort: tell the peer why before hanging up.  The
            # connection cannot be resynchronized after a framing error,
            # so it closes either way.
            try:
                sock.sendall(encode_envelope(
                    error_envelope(exc.code, str(exc)),
                    max_frame_bytes=self.max_frame_bytes))
            except OSError:
                pass
        except OSError:
            pass  # peer vanished (reset, shutdown during close)
        finally:
            sock.close()
            with self._lock:
                self._connections.pop(conn_id, None)

    def _next_frame(self, sock: socket.socket,
                    decoder: FrameDecoder) -> bytes | None:
        """Read one frame; ``None`` on clean EOF.

        Raises
        ------
        ProtocolError
            Oversize prefixes and truncated streams from the decoder,
            plus :data:`ErrorCode.TRUNCATED_FRAME` when a peer stalls
            mid-frame past ``recv_timeout`` (the slow-loris guard) —
            idle waits at a frame boundary do not trip it.
        """
        while True:
            frame = decoder.next_frame()
            if frame is not None:
                return frame
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                if decoder.pending_bytes():
                    raise ProtocolError(
                        ErrorCode.TRUNCATED_FRAME,
                        f"peer stalled mid-frame for {self.recv_timeout}s "
                        f"with {decoder.pending_bytes()} bytes buffered"
                    ) from None
                if self._closed_or_draining():
                    return None
                continue
            if not chunk:
                decoder.close()  # raises on a partial frame
                return None
            decoder.feed(chunk)

    def _closed_or_draining(self) -> bool:
        with self._lock:
            return self._closed or self._draining

    # -------------------------------------------------------------- handling
    def _handle_frame(self, frame: bytes) -> dict:
        """Decode one frame and produce its reply envelope.

        Envelope/body violations become typed error envelopes (the
        connection survives — only *framing* errors are fatal to it);
        unexpected exceptions become ``internal`` errors so the handler
        loop never dies with a request unanswered.
        """
        try:
            try:
                envelope = decode_envelope(frame)
            except ProtocolError as exc:
                with self._lock:
                    self.stats.protocol_errors += 1
                raise _Reject(exc.code, str(exc)) from None
            op = envelope.get("op")
            tenant = self._authenticate(envelope)
            if op == "ping":
                return {"protocol_version": PROTOCOL_VERSION, "ok": True,
                        "op": "ping", "draining": self.draining}
            if op == "stats":
                return self._handle_stats()
            if op == "metrics":
                return self._handle_metrics()
            if op == "query":
                return self._handle_query(envelope, tenant,
                                          frame_bytes=len(frame))
            if op == "observe":
                return self._handle_observe(envelope, tenant)
            with self._lock:
                self.stats.protocol_errors += 1
            raise _Reject(ErrorCode.UNKNOWN_OP,
                          f"unknown operation {op!r}; known: "
                          "ping, stats, metrics, query, observe")
        except _Reject as reject:
            return error_envelope(reject.code, str(reject))
        except Exception as exc:  # noqa: BLE001 - the handler must answer
            with self._lock:
                self.stats.internal_errors += 1
            return error_envelope(ErrorCode.INTERNAL,
                                  f"{type(exc).__name__}: {exc}")

    def _authenticate(self, envelope: Mapping) -> Tenant:
        """Resolve the envelope's API key to a tenant (or refuse)."""
        if self._tenants is None:
            return self._anonymous
        api_key = envelope.get("api_key")
        tenant = (self._tenants.get(api_key)
                  if isinstance(api_key, str) else None)
        if tenant is None:
            with self._lock:
                self.stats.auth_failures += 1
            raise _Reject(ErrorCode.UNAUTHORIZED,
                          "missing or unrecognised api_key")
        return tenant

    def _tenant_account(self, tenant: Tenant) -> dict:
        """Per-tenant accounting row (caller holds ``self._lock``)."""
        return self.stats.per_tenant.setdefault(
            tenant.name, {"submitted": 0, "answered": 0, "errors": 0,
                          "rejected": 0, "observes": 0})

    def _admit_query(self, tenant: Tenant) -> None:
        """Charge one query against drain state and the tenant's quota."""
        with self._lock:
            account = self._tenant_account(tenant)
            if self._draining:
                self.stats.draining_rejections += 1
                account["rejected"] += 1
                raise _Reject(ErrorCode.DRAINING,
                              "gateway is draining; no new queries")
            remaining = self._remaining.setdefault(tenant.name, tenant.quota)
            if remaining is not None and remaining <= 0:
                self.stats.quota_rejections += 1
                account["rejected"] += 1
                raise _Reject(
                    ErrorCode.QUOTA_EXCEEDED,
                    f"tenant {tenant.name!r} exhausted its quota of "
                    f"{tenant.quota} queries")
            if remaining is not None:
                self._remaining[tenant.name] = remaining - 1
            self.stats.queries += 1
            account["submitted"] += 1

    def _handle_query(self, envelope: Mapping, tenant: Tenant,
                      frame_bytes: int = 0) -> dict:
        """Answer one query op: decode, admit, submit, encode."""
        try:
            request = request_from_wire(envelope.get("request"))
        except ProtocolError as exc:
            with self._lock:
                self.stats.protocol_errors += 1
                self._tenant_account(tenant)["rejected"] += 1
            raise _Reject(exc.code, str(exc)) from None
        self._admit_query(tenant)
        tracer = getattr(self.service, "tracer", None)
        if tracer is not None and tracer.enabled:
            # Post the wire-level facts before submission: ``begin()``
            # inside the service folds them into the new trace context.
            tracer.annotate(request, tenant=tenant.name,
                            frame_bytes=int(frame_bytes))
        try:
            response = self.service.submit(request,
                                           timeout=self.request_timeout)
        except AdmissionError as exc:
            with self._lock:
                self.stats.admission_rejections += 1
                self._tenant_account(tenant)["rejected"] += 1
            raise _Reject(ErrorCode.ADMISSION, str(exc)) from None
        except UnknownSubjectError as exc:
            with self._lock:
                self.stats.unknown_subjects += 1
                self._tenant_account(tenant)["rejected"] += 1
            raise _Reject(ErrorCode.UNKNOWN_SUBJECT, str(exc)) from None
        except ServiceClosedError as exc:
            with self._lock:
                self.stats.draining_rejections += 1
                self._tenant_account(tenant)["rejected"] += 1
            raise _Reject(ErrorCode.DRAINING, str(exc)) from None
        with self._lock:
            self.stats.answered += 1
            account = self._tenant_account(tenant)
            account["answered"] += 1
            if response.error is not None:
                self.stats.response_errors += 1
                account["errors"] += 1
        return {"protocol_version": PROTOCOL_VERSION, "ok": True,
                "op": "query", "response": response_to_wire(response)}

    def _handle_observe(self, envelope: Mapping, tenant: Tenant) -> dict:
        """Fold one streamed measurement batch; ack with the new version."""
        with self._lock:
            if self._draining:
                self.stats.draining_rejections += 1
                self._tenant_account(tenant)["rejected"] += 1
                raise _Reject(ErrorCode.DRAINING,
                              "gateway is draining; no new observations")
        subject = envelope.get("subject")
        batch = envelope.get("measurements")
        if not isinstance(subject, str) or not isinstance(batch, list):
            with self._lock:
                self.stats.protocol_errors += 1
            raise _Reject(ErrorCode.BAD_REQUEST,
                          "observe needs a string 'subject' and a list "
                          "'measurements'")
        try:
            measurements = [measurement_from_dict(m) for m in batch]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            with self._lock:
                self.stats.protocol_errors += 1
            raise _Reject(ErrorCode.BAD_REQUEST,
                          f"malformed measurement: {exc}") from None
        try:
            version = self.service.observe(subject, measurements)
        except UnknownSubjectError as exc:
            with self._lock:
                self.stats.unknown_subjects += 1
                self._tenant_account(tenant)["rejected"] += 1
            raise _Reject(ErrorCode.UNKNOWN_SUBJECT, str(exc)) from None
        except InvalidMeasurementError as exc:
            # JSON admits numbers such as 1e400 that parse to inf; the
            # registry refuses the batch before touching any state.
            with self._lock:
                self.stats.protocol_errors += 1
            raise _Reject(ErrorCode.BAD_REQUEST,
                          f"malformed measurement: {exc}") from None
        except ServiceClosedError as exc:
            with self._lock:
                self.stats.draining_rejections += 1
                self._tenant_account(tenant)["rejected"] += 1
            raise _Reject(ErrorCode.DRAINING, str(exc)) from None
        with self._lock:
            self.stats.observes += 1
            self.stats.observed_measurements += len(measurements)
            self._tenant_account(tenant)["observes"] += 1
        return {"protocol_version": PROTOCOL_VERSION, "ok": True,
                "op": "observe", "subject": subject,
                "version": int(version)}

    def _handle_stats(self) -> dict:
        """Serve the gateway's and the fronted service's counters.

        The service side reads through ``stats_snapshot()`` — the
        consistent copy taken under the service's own stats lock — so a
        wire snapshot taken mid-burst can never show a torn view such as
        ``answered > submitted``.
        """
        with self._lock:
            gateway = self.stats.as_dict()
        snapshot = getattr(self.service, "stats_snapshot", None)
        service_stats = (snapshot() if callable(snapshot)
                         else self.service.stats)
        return {"protocol_version": PROTOCOL_VERSION, "ok": True,
                "op": "stats", "gateway": gateway,
                "service": dataclasses.asdict(service_stats),
                "draining": self.draining}

    def _handle_metrics(self) -> dict:
        """Serve the fronted service's :class:`MetricsSnapshot`.

        Like ``stats``/``ping``, ``metrics`` keeps answering while the
        gateway drains, so dashboards can watch a drain complete.
        """
        snapshot = self.service.metrics_snapshot()
        return {"protocol_version": PROTOCOL_VERSION, "ok": True,
                "op": "metrics", "metrics": snapshot.as_dict(),
                "draining": self.draining}


def _shutdown_socket(sock: socket.socket) -> None:
    """Half-close then close a socket, tolerating already-dead peers."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:  # pragma: no cover - close best-effort
        pass


class GatewayClient:
    """Reference wire client: one framed connection, typed failures.

    Parameters
    ----------
    address:
        ``(host, port)`` of a :class:`GatewayServer` (its
        :attr:`~GatewayServer.address`).
    api_key:
        Credential stamped on every envelope (``None`` for anonymous
        gateways).
    timeout:
        Socket timeout in seconds for connect and each exchange.
    max_frame_bytes:
        Per-frame ceiling, matching the server's.

    Examples
    --------
    >>> with GatewayClient(gateway.address, api_key="k1") as client:
    ...     response = client.submit(request)        # doctest: +SKIP
    """

    def __init__(self, address: tuple[str, int], api_key: str | None = None,
                 timeout: float = 60.0,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.api_key = api_key
        self.max_frame_bytes = int(max_frame_bytes)
        self._lock = threading.Lock()
        self._sock = socket.create_connection(tuple(address),
                                              timeout=float(timeout))
        self._sock.settimeout(float(timeout))

    # ------------------------------------------------------------- transport
    def _send(self, envelope: dict) -> None:
        document = dict(envelope)
        if self.api_key is not None:
            document.setdefault("api_key", self.api_key)
        self._sock.sendall(encode_envelope(
            document, max_frame_bytes=self.max_frame_bytes))

    def _recv(self) -> dict:
        payload = read_frame(self._sock.recv,
                             max_frame_bytes=self.max_frame_bytes)
        if payload is None:
            raise GatewayError("closed",
                               "gateway closed the connection")
        envelope = decode_envelope(payload)
        if envelope.get("ok"):
            return envelope
        error = envelope.get("error")
        error = error if isinstance(error, Mapping) else {}
        self._raise_for(str(error.get("code", ErrorCode.INTERNAL)),
                        str(error.get("message", "unspecified failure")))

    @staticmethod
    def _raise_for(code: str, message: str) -> None:
        """Map a wire error code onto the matching typed exception."""
        if code == ErrorCode.UNAUTHORIZED:
            raise GatewayAuthError(code, message)
        if code == ErrorCode.QUOTA_EXCEEDED:
            raise QuotaExceededError(code, message)
        if code == ErrorCode.DRAINING:
            raise DrainingError(code, message)
        if code == ErrorCode.ADMISSION:
            raise AdmissionError(message)
        if code == ErrorCode.UNKNOWN_SUBJECT:
            raise UnknownSubjectError(message)
        raise GatewayError(code, message)

    def _exchange(self, envelope: dict) -> dict:
        with self._lock:
            self._send(envelope)
            return self._recv()

    # -------------------------------------------------------------- requests
    def submit(self, request: QueryRequest) -> QueryResponse:
        """Submit one typed request over the wire and await its response.

        The returned :class:`~repro.service.requests.QueryResponse`
        matches the in-process ``service.submit`` answer byte for byte
        under :meth:`~repro.service.requests.QueryResponse.
        canonical_value`; engine failures still surface in
        ``response.error``, not as exceptions.

        Raises
        ------
        GatewayAuthError, QuotaExceededError, DrainingError
            Typed gateway refusals.
        AdmissionError, UnknownSubjectError
            The service's own admission surface, forwarded.
        ProtocolError
            If the server's reply violates the wire protocol.
        """
        reply = self._exchange({"op": "query",
                                "request": request_to_wire(request)})
        return response_from_wire(reply.get("response"))

    def submit_many(self, requests: Sequence[QueryRequest]
                    ) -> list[QueryResponse]:
        """Submit a batch pipelined: all frames out, then all replies in.

        Replies arrive in request order (the protocol is strictly
        ordered per connection), so one round trip's latency is paid
        once for the whole batch instead of once per request.
        """
        requests = list(requests)
        with self._lock:
            for request in requests:
                self._send({"op": "query",
                            "request": request_to_wire(request)})
            return [response_from_wire(self._recv().get("response"))
                    for _ in requests]

    def observe(self, subject: str, measurements: Sequence) -> int:
        """Stream one measurement batch into a subject's model.

        Returns the subject's model version after the fold (or after
        buffering, for drift-aware registries), mirroring the
        in-process ``service.observe`` acknowledgement.
        """
        reply = self._exchange({
            "op": "observe", "subject": str(subject),
            "measurements": [measurement_to_dict(m) for m in measurements]})
        return int(reply.get("version", -1))

    def stats(self) -> dict:
        """Fetch the gateway's and fronted service's counter snapshot."""
        reply = self._exchange({"op": "stats"})
        return {"gateway": reply.get("gateway"),
                "service": reply.get("service"),
                "draining": reply.get("draining")}

    def metrics(self) -> dict:
        """Fetch the fronted service's metrics snapshot.

        Returns the :meth:`MetricsSnapshot.as_dict
        <repro.service.metrics.MetricsSnapshot.as_dict>` rendering —
        queue depth, in-flight, coalescing ratio, batch-size histogram,
        refresh cadence and p50/p95/p99 latency — decodable with
        :meth:`MetricsSnapshot.from_dict
        <repro.service.metrics.MetricsSnapshot.from_dict>`.
        """
        reply = self._exchange({"op": "metrics"})
        return dict(reply.get("metrics") or {})

    def ping(self) -> bool:
        """Health probe; returns ``True`` while the gateway answers."""
        return bool(self._exchange({"op": "ping"}).get("ok"))

    def close(self) -> None:
        """Close the connection (idempotent)."""
        with self._lock:
            _shutdown_socket(self._sock)

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
