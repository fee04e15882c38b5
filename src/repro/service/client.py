"""The HTTP client: the service tier as a session's gateway.

:class:`RemoteEnvironment` hands out the very session class
:class:`~repro.core.deployment.SeSeMIEnvironment` does
(:class:`~repro.core.client.UserSession`), dispatching through
:class:`HttpGateway` -- the in-process gateway's three entry points over
sealed bytes, spoken over HTTP -- so examples and load drivers run
unchanged against either transport, and sealing, opening and the
deadline are written once, in the session.

Security is unchanged too: the real :class:`~repro.core.client.UserClient`
runs locally.  It performs RA-TLS **through** the service
(:class:`RemoteKeyService` proxies ``/v1/ks/*``), verifies the
KeyService quote against the attestation service it was handed (the
out-of-band IAS trust root), releases request keys over that encrypted
channel, and AEAD-seals every input itself -- the service tier only
ever sees ciphertext, exactly like the serverless platform in the
paper's threat model.

Errors arrive as the canonical wire mapping
(:func:`repro.errors.from_wire`): a 429 shed re-raises as
:class:`~repro.errors.QueueFull` whether the service's admission
controller or a saturated enclave queue produced it.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Callable, Dict, NamedTuple, Optional, Tuple, Union
from urllib.parse import urlencode, urlsplit

import repro.core.wire as wire
from repro.core.client import UserClient, UserSession
from repro.core.futures import OutcomeCell, StreamCell
from repro.errors import (
    DeadlineExceeded,
    ReproError,
    SeSeMIError,
    TransportError,
    from_wire,
)
from repro.obs.tracer import Tracer
from repro.service.protocol import (
    BINARY_CONTENT_TYPE,
    MAX_HEAD,
    MAX_LINE,
    content_length,
    content_type,
    encode_head,
    parse_head,
    read_record,
)
from repro.sgx.attestation import AttestationService
from repro.sgx.measurement import EnclaveMeasurement

#: bytes one ``recv`` asks the kernel for
_RECV = 65536
#: what a chunk-size line may hold (``int(x, 16)`` would also take ``0x``, ``+``, ``_``)
_HEX_DIGITS = b"0123456789abcdefABCDEF"


class _Stale(Exception):
    """A kept-alive connection the server had closed while it sat idle:
    the send broke, or the peer hung up before one response byte -- the
    request was never processed, so sending it again cannot run it twice."""


class _Connection:
    """One keep-alive socket speaking the service's HTTP/1.1 subset
    (:mod:`repro.service.protocol`): a request is one ``sendall`` of head
    and body, a response head one buffered ``recv`` loop up to its blank
    line, and its body ``Content-Length`` or chunked framed."""

    def __init__(self, host: str, port: int, timeout_s: float) -> None:
        self.sock: Optional[socket.socket] = socket.create_connection(
            (host, port), timeout=timeout_s
        )
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.used = False
        self._buf = bytearray()

    def exchange(self, request: bytes) -> Tuple[int, Dict[str, str]]:
        """Send ``request``; the status and headers of the reply.

        Raises :class:`_Stale` when this connection had carried a
        request before and the server hung up before replying.
        """
        reused, self.used = self.used, True
        try:
            self.sock.sendall(request)
            if not self._buf:
                self._fill()  # the reply's first byte
        except (BrokenPipeError, ConnectionResetError) as exc:
            if reused:
                raise _Stale from exc
            raise
        while (end := self._buf.find(b"\r\n\r\n")) < 0:
            if len(self._buf) > MAX_HEAD:
                raise TransportError(f"response head exceeds {MAX_HEAD} bytes")
            self._fill()
        fields, headers = parse_head(bytes(self._buf[:end]))
        del self._buf[:end + 4]
        if len(fields) < 2 or not fields[0].startswith("HTTP/1.") or not (
            fields[1].isascii() and fields[1].isdigit() and len(fields[1]) == 3
        ):
            raise TransportError(f"not an HTTP/1.x status line: {fields!r:.80}")
        return int(fields[1]), headers

    def body(self, headers: Dict[str, str]):
        """The reply body, as an object whose ``read(n)`` returns at most
        ``n`` bytes, and ``b""`` only at the body's end.  A reply with
        neither ``Content-Length`` nor chunked framing raises."""
        length = content_length(headers)
        if length is not None:
            return _Sized(self, length)
        if headers.get("transfer-encoding", "").lower() == "chunked":
            return _Chunked(self)
        raise TransportError("reply has neither Content-Length nor chunked framing")

    def read(self, n: int) -> bytes:
        """At most ``n`` (> 0) bytes: buffered ones first, else one ``recv``."""
        if not self._buf:
            self._fill()
        data = bytes(self._buf[:n])
        del self._buf[:n]
        return data

    def read_line(self) -> bytes:
        """One CRLF-terminated line of a chunked body, without its CRLF."""
        while (end := self._buf.find(b"\r\n")) < 0:
            if len(self._buf) > MAX_LINE:
                raise TransportError(f"a chunk line exceeds {MAX_LINE} bytes")
            self._fill()
        line = bytes(self._buf[:end])
        del self._buf[:end + 2]
        return line

    def _fill(self) -> None:
        sock = self.sock
        if sock is None:
            raise ConnectionAbortedError("the connection was closed")
        chunk = sock.recv(_RECV)
        if not chunk:
            raise ConnectionResetError("the server closed the connection")
        self._buf += chunk

    def close(self) -> None:
        """Close the socket; the owner dials a new connection next time.

        The shutdown sends the FIN now and wakes a thread blocked reading
        this socket -- a plain close would wait for that read to return.
        """
        sock, self.sock = self.sock, None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer already reset it
            sock.close()


class _Sized:
    """A ``Content-Length`` body on its connection."""

    def __init__(self, conn: _Connection, length: int) -> None:
        self._conn = conn
        self._left = length

    def read(self, n: int) -> bytes:
        if not self._left:
            return b""
        data = self._conn.read(min(n, self._left))
        self._left -= len(data)
        return data


class _Chunked:
    """A ``Transfer-Encoding: chunked`` body on its connection, de-chunked:
    one ``read`` returns bytes of one chunk."""

    def __init__(self, conn: _Connection) -> None:
        self._conn = conn
        self._left = 0  # bytes of the current chunk not read yet
        self._crlf_due = False  # a chunk's data was read, its CRLF was not
        self._ended = False

    def read(self, n: int) -> bytes:
        if not self._left:
            if self._ended:
                return b""
            if self._crlf_due and self._conn.read_line():
                raise TransportError("a chunk does not end in CRLF")
            size = self._conn.read_line().split(b";", 1)[0].strip()
            if not size or size.strip(_HEX_DIGITS):
                raise TransportError(f"malformed chunk size {size[:32]!r}")
            self._left, self._crlf_due = int(size, 16), True
            if not self._left:  # the last chunk: trailers up to the blank line
                while self._conn.read_line():
                    pass
                self._ended = True
                return b""
        data = self._conn.read(min(n, self._left))
        self._left -= len(data)
        return data


class ServiceClient:
    """A blocking HTTP/1.1 client for the service wire protocol.

    One keep-alive :class:`_Connection` per thread, speaking the subset
    the server speaks (:mod:`repro.service.protocol`): each request is
    one write of head plus body.  Bodies are :mod:`repro.core.wire`
    frames.  ``codec`` selects the request framing per call: the
    inference hot path sends binary frames (and asks for binary replies
    via ``Accept``), while control-plane routes stay on JSON for
    debuggability.  Replies decode through the versioned
    :func:`~repro.core.wire.loads` dispatcher either way.
    Network-level failures raise :class:`~repro.errors.TransportError`;
    HTTP error statuses re-raise the server's exception via
    :func:`~repro.errors.from_wire`.
    """

    def __init__(self, base_url: str, timeout_s: float = 30.0) -> None:
        split = urlsplit(base_url)
        if split.scheme != "http" or split.hostname is None:
            raise SeSeMIError(f"unsupported service url {base_url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        self._authority = split.netloc
        self.timeout_s = timeout_s
        self._local = threading.local()

    def _connection(self) -> _Connection:
        """This thread's keep-alive connection (redialled after a close)."""
        conn = getattr(self._local, "conn", None)
        if conn is None or conn.sock is None:
            conn = self._local.conn = self._dial()
        return conn

    def _dial(self) -> _Connection:
        return _Connection(self.host, self.port, self.timeout_s)

    def _send(
        self,
        connect: Callable[[], _Connection],
        method: str,
        path: str,
        payload: Optional[dict],
        query: Optional[Dict[str, str]],
        span,
        codec: wire.WireCodec,
    ):
        """Send one request on ``connect()``; ``(connection, status, headers)``.

        The response head is read, the body is not.  ``span`` is the
        caller's client span: its id travels as ``x-client-span`` and
        the ``x-trace-id`` the server answers with is recorded on it, so
        the two span trees join.  The one retry is a :class:`_Stale`
        connection; a timeout never retries -- the request may be
        running, and no route is idempotent (docs/service.md).
        """
        body = wire.dumps(payload, codec=codec) if payload is not None else b""
        target = path + ("?" + urlencode(query) if query else "")
        headers = {
            "Host": self._authority,
            "Content-Type": content_type(codec),
            "Content-Length": str(len(body)),
        }
        if codec is wire.BINARY:
            headers["Accept"] = BINARY_CONTENT_TYPE
        if span is not None:
            headers["x-client-span"] = span.span_id
        request = encode_head(f"{method} {target} HTTP/1.1", headers) + body
        while True:
            conn = None
            try:
                conn = connect()
                status, reply_headers = conn.exchange(request)
            except _Stale:
                conn.close()  # sent again, once: the next connection is a fresh one
                continue
            except (OSError, TransportError) as exc:  # socket.timeout is an OSError
                if conn is not None:
                    conn.close()
                raise TransportError(f"{method} {path} failed: {exc}") from exc
            if span is not None and (trace_id := reply_headers.get("x-trace-id")):
                span.set_attributes(server_trace_id=trace_id)
            return conn, status, reply_headers

    def _reply(self, conn: _Connection, headers: Dict[str, str], what: str) -> dict:
        """Read and decode a (non-streaming) response body."""
        try:
            body = conn.body(headers)
            raw = b"".join(iter(lambda: body.read(_RECV), b""))
        except (OSError, TransportError) as exc:
            conn.close()
            raise TransportError(f"{what} failed: {exc}") from exc
        if headers.get("connection", "").lower() == "close":
            conn.close()
        try:
            return wire.loads(raw) if raw else {}
        except wire.WireError:
            return {"error": "", "message": raw.decode("latin-1", "replace")}

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        query: Optional[Dict[str, str]] = None,
        span=None,
        codec: wire.WireCodec = wire.JSON,
    ):
        """One round trip: ``(status, payload_dict, response_headers)``,
        header names lower-cased."""
        conn, status, headers = self._send(
            self._connection, method, path, payload, query, span, codec
        )
        return status, self._reply(conn, headers, f"{method} {path}"), headers

    def call(
        self, method: str, path: str, payload: Optional[dict] = None, **kwargs
    ) -> dict:
        """Like :meth:`request` but raises the server's error on >= 400."""
        status, reply, _ = self.request(method, path, payload, **kwargs)
        if status >= 400:
            raise from_wire(reply, status)
        return reply

    def open_stream(self, path: str, payload: dict, span=None) -> "HttpStream":
        """POST and return the live reply body as an :class:`HttpStream`.

        Streaming responses get a **dedicated** connection (not the
        per-thread keep-alive one): the body is read as the server
        decodes, so the connection cannot be reused until the stream
        drains -- and an abandoned stream must close its socket to tell
        the server to stop decoding; the stream owns closing it.  An
        HTTP error status raises the server's exception immediately.
        """
        conn, status, headers = self._send(
            self._dial, "POST", path, payload, None, span, wire.BINARY
        )
        if status >= 400:
            reply = self._reply(conn, headers, f"POST {path}")
            conn.close()
            raise from_wire(reply, status)
        try:
            body = conn.body(headers)
        except TransportError:
            conn.close()
            raise
        return HttpStream(conn, body)

    def close(self) -> None:
        """Close this thread's keep-alive connection."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()


class RemoteKeyService:
    """KeyService as seen through the service proxy.

    Exposes exactly the two-method host surface
    (:meth:`handshake` / :meth:`request`) that
    :class:`~repro.core.client.KeyServiceConnection` needs, so the
    client's RA-TLS handshake and encrypted operations run unchanged --
    the proxy forwards opaque blobs and can neither read nor forge them.
    """

    def __init__(self, client: ServiceClient) -> None:
        self._client = client

    def handshake(self, offer_wire: dict) -> dict:
        """Forward an RA-TLS offer; returns the enclave's reply."""
        return self._client.call(
            "POST", "/v1/ks/handshake", {"offer": offer_wire}
        )

    def request(self, channel_id: int, ciphertext: bytes) -> bytes:
        """Forward one encrypted KeyService op on an open channel."""
        reply = self._client.call(
            "POST", "/v1/ks/call",
            {"channel_id": channel_id, "ciphertext": ciphertext},
        )
        return reply["reply"]


class RemoteEnvironment:
    """A client-side view of one running service (the remote twin of
    :class:`~repro.core.deployment.SeSeMIEnvironment`).

    Its sessions are the in-process :class:`~repro.core.client.UserSession`
    over :attr:`gateway`; what lives here is HTTP-only: the KeyService
    proxy, ``meta``, ``healthz`` / ``stats`` and grants.
    ``attestation`` is the verification service the client trusts
    out-of-band (the paper's IAS); KeyService's expected measurement is
    read from ``/v1/meta`` here for convenience -- a production client
    would pin it from the enclave build it audited.
    """

    def __init__(
        self,
        base_url: str,
        attestation: AttestationService,
        *,
        tracer: Optional[Tracer] = None,
        timeout_s: float = 30.0,
    ) -> None:
        self.client = ServiceClient(base_url, timeout_s=timeout_s)
        self.attestation = attestation
        self.tracer = tracer
        self.keyservice = RemoteKeyService(self.client)
        self.meta = self.client.call("GET", "/v1/meta")
        #: what every session of this environment dispatches through
        self.gateway = HttpGateway(self.client, self.meta, tracer)
        self._users: Dict[str, UserClient] = {}

    def connect_user(self, name: str = "user") -> UserClient:
        """Create a user, attest KeyService through the proxy, register."""
        user = UserClient(name, tracer=self.tracer)
        user.connect(
            self.keyservice,
            self.attestation,
            EnclaveMeasurement(self.meta["keyservice_measurement"]),
        )
        user.register()
        self._users[name] = user
        return user

    def user(self, user: Union[UserClient, str, None] = None) -> UserClient:
        """Resolve a name to a connected user, connecting on first use."""
        if isinstance(user, UserClient):
            return user
        name = user or "user"
        client = self._users.get(name)
        return client if client is not None else self.connect_user(name)

    def model(self, model_id: str) -> "RemoteModelHandle":
        """A handle for a model the service advertises in ``/v1/meta``."""
        info = self.meta["models"].get(model_id)
        if info is None:
            raise SeSeMIError(f"service does not serve model {model_id!r}")
        return RemoteModelHandle(self, model_id, info)

    def session(self, user: Union[UserClient, str], model_id: str) -> UserSession:
        """A serving session for ``user`` against ``model_id``."""
        return self.model(model_id).session(user)

    def healthz(self) -> dict:
        """The service's liveness snapshot (``GET /v1/healthz``)."""
        return self.client.call("GET", "/v1/healthz")

    def stats(self) -> dict:
        """Admission/gateway counters (``GET /v1/stats``)."""
        return self.client.call("GET", "/v1/stats")

    def close(self) -> None:
        """Release the underlying HTTP connections."""
        self.client.close()


class RemoteModelHandle:
    """The remote twin of :class:`~repro.core.deployment.ModelHandle`."""

    def __init__(
        self, env: RemoteEnvironment, model_id: str, info: dict
    ) -> None:
        self._env = env
        self.model_id = model_id
        self.framework = info["framework"]
        self.measurement = EnclaveMeasurement(info["measurement"])

    def grant(self, user: Union[UserClient, str]) -> "RemoteModelHandle":
        """Grant ``user`` access: owner half server-side, key release here.

        ``POST /v1/grants`` performs the owner's GRANT_ACCESS; the
        user's ADD_REQ_KEY runs locally over the KeyService proxy so
        the request key never exists outside client and KeyService.
        """
        client = self._env.user(user)
        if client.principal_id is None:
            raise SeSeMIError("user must be registered first")
        reply = self._env.client.call(
            "POST", "/v1/grants",
            {"model_id": self.model_id, "uid": client.principal_id},
        )
        if reply["measurement"] != self.measurement.value:
            raise SeSeMIError("service changed the target enclave identity")
        client.add_request_key(self.model_id, self.measurement)
        return self

    def session(self, user: Union[UserClient, str]) -> UserSession:
        """A serving session for ``user`` against this model, over HTTP.

        No resilience policy and no fault injector: the service tier
        clamps the deadline and sheds, and the caller retries.
        """
        env = self._env
        return UserSession(
            env.gateway, env.user(user), self.model_id, self.measurement,
            tracer=env.tracer,
        )


class HttpReply(NamedTuple):
    """A ``POST /v1/infer`` reply: the sealed output.  How the request was
    served stays on the server's side of the wire (``flavor`` is ``None``)."""

    output: bytes
    flavor: Optional[str] = None


class HttpGateway:
    """The service tier as a session's gateway: sealed bytes over HTTP.

    The in-process :class:`~repro.core.gateway.InferenceGateway`'s entry
    points, one route each: :meth:`dispatch` is ``POST /v1/infer`` (the
    server waits, clamping ``timeout_s`` to its own maximum --
    docs/service.md); :meth:`submit` is ``POST /v1/submit`` and an
    :class:`HttpSubmission` long-polled over ``/v1/results/{id}``;
    :meth:`open_stream` is ``POST /v1/stream`` read as an
    :class:`HttpStream`; :meth:`feed_window` is the window ``/v1/meta``
    advertises.  Each request carries the caller's ambient span as
    ``x-client-span`` and marks it ``transport="http"``, and the span
    records the ``server_trace_id`` the reply names, so the client's and
    the server's span trees join.
    """

    def __init__(self, client: ServiceClient, meta: dict, tracer: Optional[Tracer] = None) -> None:
        self._client = client
        self._tracer = tracer
        self._windows = {
            model_id: int(info["feed_window"]) for model_id, info in meta["models"].items()
        }

    def dispatch(
        self,
        enc_request: bytes,
        user_id: str,
        model_id: str,
        timeout_s: Optional[float] = None,
    ) -> HttpReply:
        """Serve one sealed request: ``POST /v1/infer``."""
        extra = {} if timeout_s is None else {"timeout_s": float(timeout_s)}
        reply = self._post("/v1/infer", enc_request, user_id, model_id, **extra)
        return HttpReply(reply["enc_response"])

    def submit(self, enc_request: bytes, user_id: str, model_id: str) -> "HttpSubmission":
        """Admit one sealed request: ``POST /v1/submit``; sheds raise ``QueueFull``."""
        reply = self._post("/v1/submit", enc_request, user_id, model_id)
        return HttpSubmission(self._client, reply["req_id"], model_id)

    def open_stream(self, enc_request: bytes, user_id: str, model_id: str) -> "HttpStream":
        """Open one sealed stream: ``POST /v1/stream``, frames as they decode."""
        return self._client.open_stream(
            "/v1/stream", self._body(enc_request, user_id, model_id), span=self._span()
        )

    def feed_window(self, admitted: "HttpSubmission") -> int:
        """The in-flight window the service advertises for the model."""
        return self._windows[admitted.model_id]

    def _post(self, path: str, enc_request: bytes, user_id: str, model_id: str, **extra) -> dict:
        return self._client.call(
            "POST", path, self._body(enc_request, user_id, model_id, **extra),
            span=self._span(), codec=wire.BINARY,
        )

    def _span(self):
        """The caller's ambient span, marked as carried over HTTP."""
        span = None if self._tracer is None else self._tracer.current_span()
        if span is not None:
            span.set_attribute("transport", "http")
        return span

    @staticmethod
    def _body(enc_request: bytes, user_id: str, model_id: str, **extra) -> dict:
        return {"model_id": model_id, "uid": user_id, "enc_request": enc_request, **extra}


class _ConsumerFed(OutcomeCell):
    """A cell with no producer thread: whoever waits on it feeds it.

    One waiter at a time holds ``_feeder`` and runs the subclass's
    ``_feed(chunk_s)`` -- one round trip, or one read off the socket,
    of at most ``chunk_s``: it pushes, seals, or neither -- while the
    others sleep on the cell; every other call answers from the cell.
    """

    #: the longest single feed (``None``: only the caller's deadline)
    _FEED_CAP_S: Optional[float] = None

    def __init__(self) -> None:
        super().__init__()
        self._feeder = threading.Lock()

    def _wait_for(self, ready: Callable[[], bool], timeout_s: Optional[float]) -> bool:
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while not ready():
            chunk = self._FEED_CAP_S
            if deadline is not None:
                left = max(0.0, deadline - time.monotonic())
                chunk = left if chunk is None else min(chunk, left)
            if self._feeder.acquire(blocking=False):
                try:
                    if not ready():
                        self._feed(chunk)
                finally:
                    self._feeder.release()
                    with self._cv:  # a sleeping waiter takes over from here
                        self._cv.notify_all()
            else:  # sleep until the feeding thread produced it, or stopped
                super()._wait_for(
                    lambda: ready() or not self._feeder.locked(), chunk
                )
            if chunk == 0.0:
                break
        return ready()


class HttpSubmission(_ConsumerFed):
    """A submitted request's sealed output: the outcome cell, fed over HTTP.

    The HTTP twin of :class:`~repro.core.gateway.GatewaySubmission` --
    the same :class:`~repro.core.futures.Future` contract, because it
    *is* the cell, fed by its consumers: a wait long-polls ``GET
    /v1/results/{id}`` -- one poller at a time, the server hands the
    output out once (sticky 410 after) -- and seals the sealed
    ``enc_response`` (200) or the server's error (4xx/5xx); opening it
    is the session's job.  :meth:`cancel` seals the cancellation an
    accepted ``DELETE`` promises (the enclave execution context is
    released server-side).  Once sealed, ``result()`` is repeatable and
    nothing costs a round trip.
    """

    _FEED_CAP_S = 5.0

    def __init__(self, client: ServiceClient, req_id: str, model_id: str) -> None:
        super().__init__()
        self._client = client
        self.req_id = req_id
        self.model_id = model_id
        self._path = f"/v1/results/{req_id}"

    def _what(self) -> str:
        return f"request {self.req_id}"

    def done(self) -> bool:
        """Terminal yet?  One non-blocking poll while the answer is unknown."""
        return self.wait(0.0)

    def cancel(self) -> bool:
        """DELETE the request; ``True`` when the server cancelled it."""
        if not self._done:
            reply = self._client.call("DELETE", self._path)
            if reply.get("cancelled"):
                super().cancel()
                self.set_cancelled()
        return self._cancelled

    def _feed(self, chunk_s: float) -> None:
        """One ``GET``; seals the cell unless the server answers 202."""
        status, reply, _ = self._client.request(
            "GET", self._path, query={"timeout_s": f"{chunk_s:.3f}"},
            codec=wire.BINARY,
        )
        if status == 202:
            return  # still in flight
        try:
            if status >= 400:
                raise from_wire(reply, status)
            self.set_result(reply["enc_response"])
        except ReproError as exc:
            self.set_error(exc)


class HttpStream(_ConsumerFed, StreamCell):
    """The sealed frames of one ``/v1/stream`` reply, fed off the socket.

    The HTTP twin of the scheduler's
    :class:`~repro.core.semirt.InferenceStream`: the same stream cell,
    fed by its consumers -- a wait reads one record
    (:func:`~repro.service.protocol.read_record`) and pushes its frame;
    the end of the body, an error record or a transport failure seals it.

    One transport caveat: the stream *is* the connection.  A wait that
    expires on the socket seals :class:`~repro.errors.DeadlineExceeded`
    and closes it -- a timed-out remote stream is dead, not resumable --
    and an accepted :meth:`cancel` closes it too, which is the signal:
    the server's next write fails and it cancels the gateway stream,
    releasing the enclave KV/stream context.
    """

    def __init__(self, conn, body) -> None:
        super().__init__()
        self._conn = conn
        self._body = body

    def _what(self) -> str:
        return "remote stream"

    def cancel(self) -> bool:
        """Abandon the stream by closing its socket; ``False`` once sealed."""
        accepted = super().cancel()
        if accepted:
            self.set_cancelled()  # sealed first: a reader the close wakes loses
            self._conn.close()
        return accepted

    def _feed(self, chunk_s: Optional[float]) -> None:
        try:
            if chunk_s is not None:
                if chunk_s <= 0:
                    raise socket.timeout
                if self._conn.sock is not None:
                    self._conn.sock.settimeout(chunk_s)
            frame = read_record(self._body.read)
            if frame is not None:
                return self.push(frame)
            self.set_result()  # the body ended, at a record boundary
        except socket.timeout:
            self.set_error(DeadlineExceeded(
                f"{self._what()} not drained within the timeout"
            ))
        except ReproError as exc:  # an error record: the server's exception
            self.set_error(exc)
        except Exception as exc:  # noqa: BLE001 - a torn or garbled body
            self.set_error(TransportError(f"{self._what()} failed: {exc!r}"))
        self._conn.close()


__all__ = [
    "HttpGateway",
    "HttpReply",
    "HttpStream",
    "HttpSubmission",
    "RemoteEnvironment",
    "RemoteKeyService",
    "RemoteModelHandle",
    "ServiceClient",
]
