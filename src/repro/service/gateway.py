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
* **Pipelined connections** — a connection's reader thread admits each
  query frame the moment it arrives (``submit_async``), so frames one
  client sends back to back coalesce in the service's batch window
  instead of each waiting out its predecessor's answer.  A per-connection
  writer thread sends the replies strictly in frame order (clients match
  them FIFO).  Every other op (``observe``, ``stats``, ``metrics``,
  ``ping``) first waits until all earlier replies on its connection are
  written, so a query sent before an observe is answered by the
  pre-observe model.  Both ends set ``TCP_NODELAY``: with Nagle's
  algorithm on, a reply or frame written while the previous one was
  still unacknowledged was held until the peer's ACK, which could take
  the 40 ms delayed-ACK timer.
* **Graceful drain** — :meth:`GatewayServer.close` stops admitting
  (``draining`` typed errors on new connections and new requests) while
  admitted requests settle and their responses are delivered; only then
  do the sockets come down.

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
from collections import deque
from concurrent.futures import Future
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


#: Service exceptions a query or observe can meet, with the
#: :class:`GatewayStats` counter and wire code each is refused under.
_SERVICE_REFUSALS = {
    AdmissionError: ("admission_rejections", ErrorCode.ADMISSION),
    UnknownSubjectError: ("unknown_subjects", ErrorCode.UNKNOWN_SUBJECT),
    ServiceClosedError: ("draining_rejections", ErrorCode.DRAINING),
}

#: Replies one connection may owe before its reader stops reading: a peer
#: that sends but never reads is pushed back by TCP, not buffered here.
_MAX_OWED = 1024


class _Connection:
    """Server-side per-connection state: socket, threads, reply slots.

    The reader thread queues one reply slot per frame, in frame order:
    a ready reply envelope, or ``(tenant, future)`` for an admitted query.
    The writer thread takes them in that order.  ``in_flight`` counts the
    frames whose replies are not yet written — what a drain waits out.
    """

    def __init__(self, sock: socket.socket, address) -> None:
        self.sock = sock
        self.address = address
        self.thread: threading.Thread | None = None
        self.writer: threading.Thread | None = None
        self.in_flight = 0
        self._slots: deque = deque()
        self._cv = threading.Condition()

    def open_frame(self) -> None:
        """Count one frame whose reply is owed."""
        with self._cv:
            self.in_flight += 1

    def push(self, slot) -> None:
        """Queue the next reply slot (``None`` ends the stream)."""
        with self._cv:
            self._slots.append(slot)
            self._cv.notify_all()

    def next_slot(self):
        """Take the next reply slot in frame order, waiting for it."""
        with self._cv:
            while not self._slots:
                self._cv.wait()
            return self._slots.popleft()

    def written(self) -> None:
        """One owed reply was written (or dropped with its peer)."""
        with self._cv:
            self.in_flight -= 1
            self._cv.notify_all()

    def wait_owed(self, at_most: int) -> None:
        """Wait until at most ``at_most`` replies are owed."""
        with self._cv:
            while self.in_flight > at_most:
                self._cv.wait()


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
        with ``submit_async``, ``observe`` and a ``stats`` dataclass).  The
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
        Seconds a connection's writer waits for the service to answer
        the query whose reply is next in line.
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
        error envelope, while requests already admitted complete and
        deliver their responses.  ``ping`` and ``stats`` keep working so
        health checks can watch the drain.
        """
        with self._lock:
            self._draining = True

    def close(self, timeout: float | None = 10.0) -> None:
        """Drain, let in-flight requests settle, then tear the wire down.

        The sequence is: (1) :meth:`drain` — new work is refused with
        typed errors but connections stay up; (2) wait up to ``timeout``
        until every reply a connection owes is written; (3)
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
                busy = any(conn.in_flight
                           for conn in self._connections.values())
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
        """Reader loop: reassemble frames and start each as it arrives.

        The replies go out through the connection's writer thread
        (:meth:`_write_replies`), in frame order; the writer is joined
        before the connection is reaped.
        """
        sock = conn.sock
        sock.settimeout(self.recv_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        decoder = FrameDecoder(self.max_frame_bytes)
        conn.writer = threading.Thread(
            target=self._write_replies, args=(conn,),
            name=f"gateway-conn-{conn_id}-writer", daemon=True)
        conn.writer.start()
        try:
            while True:
                conn.wait_owed(_MAX_OWED - 1)
                frame = self._next_frame(sock, decoder)
                if frame is None:
                    return
                conn.open_frame()
                with self._lock:
                    self.stats.frames += 1
                conn.push(self._guarded(self._start_frame, conn, frame))
        except ProtocolError as exc:
            with self._lock:
                self.stats.protocol_errors += 1
            # The stream cannot be resynchronized after a framing error:
            # the earlier replies go out, then this typed error, then the
            # connection closes.
            conn.open_frame()
            conn.push(error_envelope(exc.code, str(exc)))
        except OSError:
            pass  # peer vanished (reset, shutdown during close)
        finally:
            conn.push(None)
            conn.writer.join()
            sock.close()
            with self._lock:
                self._connections.pop(conn_id, None)

    def _write_replies(self, conn: _Connection) -> None:
        """Writer loop: send each reply slot in frame order.

        A query's slot is finished here — waited on, accounted, encoded —
        so the service's dispatcher never touches a socket.  After a
        failed write the peer is gone: the socket is shut down (ending
        the reader) and the remaining slots are still finished, unsent,
        so every admitted request is accounted.
        """
        writable = True
        while True:
            slot = conn.next_slot()
            if slot is None:
                return
            reply = (slot if isinstance(slot, dict)
                     else self._guarded(self._finish_query, *slot))
            try:
                payload = encode_envelope(
                    reply, max_frame_bytes=self.max_frame_bytes)
            except ProtocolError as exc:  # e.g. an oversize answer
                with self._lock:
                    self.stats.protocol_errors += 1
                payload = encode_envelope(error_envelope(exc.code, str(exc)))
            if writable:
                try:
                    conn.sock.sendall(payload)
                except OSError:
                    writable = False
                    try:
                        conn.sock.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
            conn.written()

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
    def _guarded(self, step, *args):
        """Run one start or finish step; refusals become typed error
        envelopes and unexpected exceptions ``internal`` ones, so every
        frame gets a reply."""
        try:
            return step(*args)
        except _Reject as reject:
            return error_envelope(reject.code, str(reject))
        except Exception as exc:  # noqa: BLE001 - the frame must be answered
            with self._lock:
                self.stats.internal_errors += 1
            return error_envelope(ErrorCode.INTERNAL,
                                  f"{type(exc).__name__}: {exc}")

    def _refuse(self, counter: str, code: str, message: str,
                tenant: Tenant | None = None) -> _Reject:
        """Count a refusal in ``stats.<counter>`` (and against
        ``tenant``) and return it to raise."""
        with self._lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
            if tenant is not None:
                self._tenant_account(tenant)["rejected"] += 1
        return _Reject(code, message)

    def _service_refusal(self, exc: Exception, tenant: Tenant) -> _Reject:
        """Refuse with the counter and code of a service exception."""
        counter, code = _SERVICE_REFUSALS[type(exc)]
        return self._refuse(counter, code, str(exc), tenant)

    def _start_frame(self, conn: _Connection, frame: bytes):
        """Decode and start one frame; returns its reply slot.

        A query is admitted to the service at once and its slot is
        ``(tenant, future)``, finished by the writer.  Any other op first
        waits until every earlier reply on the connection is written,
        then runs here, and its slot is its reply envelope.
        Envelope/body violations are refused with typed errors — the
        connection survives; only *framing* errors are fatal to it.
        """
        try:
            envelope = decode_envelope(frame)
        except ProtocolError as exc:
            raise self._refuse("protocol_errors", exc.code,
                               str(exc)) from None
        op = envelope.get("op")
        tenant = self._authenticate(envelope)
        if op == "query":
            return self._start_query(envelope, tenant, len(frame))
        if op not in ("ping", "stats", "metrics", "observe"):
            raise self._refuse("protocol_errors", ErrorCode.UNKNOWN_OP,
                               f"unknown operation {op!r}; known: "
                               "ping, stats, metrics, query, observe")
        conn.wait_owed(1)  # this frame's own reply is the one left
        if op == "observe":
            return self._handle_observe(envelope, tenant)
        if op == "stats":
            return self._handle_stats()
        if op == "metrics":
            return self._handle_metrics()
        return {"protocol_version": PROTOCOL_VERSION, "ok": True,
                "op": "ping", "draining": self.draining}

    def _authenticate(self, envelope: Mapping) -> Tenant:
        """Resolve the envelope's API key to a tenant (or refuse)."""
        if self._tenants is None:
            return self._anonymous
        api_key = envelope.get("api_key")
        tenant = (self._tenants.get(api_key)
                  if isinstance(api_key, str) else None)
        if tenant is None:
            raise self._refuse("auth_failures", ErrorCode.UNAUTHORIZED,
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

    def _start_query(self, envelope: Mapping, tenant: Tenant,
                     frame_bytes: int) -> tuple[Tenant, Future]:
        """Decode, admit and submit one query op without waiting for it."""
        try:
            request = request_from_wire(envelope.get("request"))
        except ProtocolError as exc:
            raise self._refuse("protocol_errors", exc.code, str(exc),
                               tenant) from None
        self._admit_query(tenant)
        tracer = getattr(self.service, "tracer", None)
        if tracer is not None and tracer.enabled:
            # Post the wire-level facts before submission: ``begin()``
            # inside the service folds them into the new trace context.
            tracer.annotate(request, tenant=tenant.name,
                            frame_bytes=int(frame_bytes))
        try:
            return tenant, self.service.submit_async(request)
        except (AdmissionError, UnknownSubjectError,
                ServiceClosedError) as exc:
            raise self._service_refusal(exc, tenant) from None

    def _finish_query(self, tenant: Tenant, future: Future) -> dict:
        """Wait for one admitted query's answer and build its reply."""
        try:
            response = future.result(timeout=self.request_timeout)
        except ServiceClosedError as exc:
            raise self._service_refusal(exc, tenant) from None
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
        if self.draining:
            raise self._refuse("draining_rejections", ErrorCode.DRAINING,
                               "gateway is draining; no new observations",
                               tenant)
        subject = envelope.get("subject")
        batch = envelope.get("measurements")
        if not isinstance(subject, str) or not isinstance(batch, list):
            raise self._refuse("protocol_errors", ErrorCode.BAD_REQUEST,
                               "observe needs a string 'subject' and a "
                               "list 'measurements'")
        try:
            measurements = [measurement_from_dict(m) for m in batch]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise self._refuse("protocol_errors", ErrorCode.BAD_REQUEST,
                               f"malformed measurement: {exc}") from None
        try:
            version = self.service.observe(subject, measurements)
        except InvalidMeasurementError as exc:
            # JSON admits numbers such as 1e400 that parse to inf; the
            # registry refuses the batch before touching any state.
            raise self._refuse("protocol_errors", ErrorCode.BAD_REQUEST,
                               f"malformed measurement: {exc}") from None
        except (UnknownSubjectError, ServiceClosedError) as exc:
            raise self._service_refusal(exc, tenant) from None
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
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    # ------------------------------------------------------------- transport
    def _frame(self, envelope: dict) -> bytes:
        """Stamp the client's ``api_key`` on an envelope and encode it."""
        document = dict(envelope)
        if self.api_key is not None:
            document.setdefault("api_key", self.api_key)
        return encode_envelope(document, max_frame_bytes=self.max_frame_bytes)

    def _send(self, envelope: dict) -> None:
        self._sock.sendall(self._frame(envelope))

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

        Every frame is encoded first and the batch goes out in one
        ``sendall``.  Replies arrive in request order (the protocol is
        strictly ordered per connection), so one round trip's latency is
        paid once for the whole batch instead of once per request.  Both
        ends of the connection disable Nagle's algorithm: with it, a
        frame or reply written while the previous one was still
        unacknowledged was held until the peer's ACK, which could take
        the 40 ms delayed-ACK timer.
        """
        requests = list(requests)
        payload = b"".join(
            self._frame({"op": "query", "request": request_to_wire(request)})
            for request in requests)
        with self._lock:
            self._sock.sendall(payload)
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
