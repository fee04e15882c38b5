"""The HTTP client: the session API consolidated over the service tier.

:class:`RemoteEnvironment` / :class:`RemoteSession` speak the same
surface as :class:`~repro.core.deployment.SeSeMIEnvironment` /
:class:`~repro.core.deployment.UserSession` (``connect_user``,
``grant``, ``infer``, ``infer_many``, ``submit``), so examples and
load drivers run unchanged against either transport.

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

import http.client
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Union
from urllib.parse import urlencode, urlsplit

import numpy as np

import repro.core.wire as wire
from repro.core.client import TokenStream, UserClient
from repro.core.futures import OutcomeCell, StreamCell, gather_windowed
from repro.errors import (
    DeadlineExceeded,
    ReproError,
    SeSeMIError,
    TransportError,
    from_wire,
)
from repro.obs.tracer import Tracer, maybe_span
from repro.service.protocol import BINARY_CONTENT_TYPE, content_type, read_record
from repro.sgx.attestation import AttestationService
from repro.sgx.measurement import EnclaveMeasurement

#: how a kept-alive connection the server closed while it sat idle fails:
#: the send breaks, or the peer hangs up before one response byte -- the
#: request was never processed, so sending it again cannot run it twice
_STALE = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)
#: every way the transport itself fails (``socket.timeout`` is an OSError)
_TRANSPORT = (http.client.HTTPException, OSError)


class ServiceClient:
    """A blocking HTTP/1.1 client for the service wire protocol.

    Stdlib :mod:`http.client` with one keep-alive connection per
    thread; bodies are :mod:`repro.core.wire` frames.  ``codec``
    selects the request framing per call: the inference hot path sends
    binary frames (and asks for binary replies via ``Accept``), while
    control-plane routes stay on JSON for debuggability.  Replies
    decode through the versioned :func:`~repro.core.wire.loads`
    dispatcher either way.  Network-level
    failures raise :class:`~repro.errors.TransportError`; HTTP error
    statuses re-raise the server's exception via
    :func:`~repro.errors.from_wire`.
    """

    def __init__(self, base_url: str, timeout_s: float = 30.0) -> None:
        split = urlsplit(base_url)
        if split.scheme != "http" or split.hostname is None:
            raise SeSeMIError(f"unsupported service url {base_url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        self.timeout_s = timeout_s
        self._local = threading.local()

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's keep-alive connection (reconnects after a close)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._dial()
        return conn

    def _dial(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )

    def _send(
        self,
        connect: Callable[[], http.client.HTTPConnection],
        method: str,
        path: str,
        payload: Optional[dict],
        query: Optional[Dict[str, str]],
        span,
        codec: wire.WireCodec,
    ):
        """Send one request on ``connect()``; ``(connection, response)``.

        The response head is read, the body is not.  ``span`` is the
        caller's client span: its id travels as ``x-client-span`` and
        the ``x-trace-id`` the server answers with is recorded on it, so
        the two span trees join.  The one retry is for :data:`_STALE` on
        a connection this thread had already used; a timeout never
        retries -- the request may be running, and no route is
        idempotent (docs/service.md).
        """
        body = wire.dumps(payload, codec=codec) if payload is not None else b""
        target = path + ("?" + urlencode(query) if query else "")
        headers = {"Content-Type": content_type(codec)}
        if codec is wire.BINARY:
            headers["Accept"] = BINARY_CONTENT_TYPE
        if span is not None:
            headers["x-client-span"] = span.span_id
        while True:
            conn = connect()
            reused = conn.sock is not None
            try:
                conn.request(method, target, body=body, headers=headers)
                response = conn.getresponse()
            except _TRANSPORT as exc:
                conn.close()  # the next use reconnects
                if not (reused and isinstance(exc, _STALE)):
                    raise TransportError(
                        f"{method} {path} failed: {exc}"
                    ) from exc
            else:
                if span is not None and (trace_id := response.getheader("x-trace-id")):
                    span.set_attributes(server_trace_id=trace_id)
                return conn, response

    def _reply(self, conn, response, what: str) -> dict:
        """Read and decode a (non-streaming) response body."""
        try:
            raw = response.read()
        except _TRANSPORT as exc:
            conn.close()
            raise TransportError(f"{what} failed: {exc}") from exc
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
        """One round trip: ``(status, payload_dict, response_headers)``."""
        conn, response = self._send(
            self._connection, method, path, payload, query, span, codec
        )
        reply = self._reply(conn, response, f"{method} {path}")
        return response.status, reply, dict(response.getheaders())

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
        conn, response = self._send(
            self._dial, "POST", path, payload, None, span, wire.BINARY
        )
        if response.status >= 400:
            reply = self._reply(conn, response, f"POST {path}")
            conn.close()
            raise from_wire(reply, response.status)
        return HttpStream(conn, response)

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

    def session(
        self, user: Union[UserClient, str], model_id: str
    ) -> "RemoteSession":
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
        self.tcs_count = int(info["tcs_count"])
        self.feed_window = int(info["feed_window"])

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

    def session(self, user: Union[UserClient, str]) -> "RemoteSession":
        """A serving session for ``user`` against this model."""
        return RemoteSession(self._env, self._env.user(user), self)


class RemoteSession:
    """One user's serving session over HTTP -- the same surface as
    :class:`~repro.core.deployment.UserSession`.

    ``infer`` is the sync endpoint (server waits under a deadline);
    ``submit`` returns a :class:`RemoteFuture` polled over
    ``/v1/results/{id}``; ``infer_many`` pipelines submits with the
    ``feed_window`` the service derived from its live
    :class:`~repro.core.batching.BatchPolicy` -- the satellite-6 fix
    made that window policy-derived on both transports.
    """

    def __init__(
        self,
        env: RemoteEnvironment,
        user: UserClient,
        handle: RemoteModelHandle,
    ) -> None:
        if user.principal_id is None:
            raise SeSeMIError("user must be registered first")
        self._env = env
        self._client = env.client
        self.user = user
        self.handle = handle
        self.model_id = handle.model_id
        self.measurement = handle.measurement

    def infer(
        self,
        x: np.ndarray,
        timeout_s: Optional[float] = None,
    ) -> np.ndarray:
        """Encrypt ``x``, POST it, decrypt the reply (one client span).

        ``timeout_s`` is the repo-wide wait keyword (seconds; the
        server clamps it to its configured maximum -- docs/service.md).
        """
        extra = {} if timeout_s is None else {"timeout_s": float(timeout_s)}
        return self._post("request", "/v1/infer", x, self._decrypt, **extra)

    def submit(self, x: np.ndarray) -> "RemoteFuture":
        """Admit ``x`` asynchronously; sheds raise ``QueueFull`` here."""
        return self._post(
            "submit", "/v1/submit", x,
            lambda reply: RemoteFuture(self, reply["req_id"]),
        )

    def _span(self, name: str):
        """The one client span a request runs under (no-op when untraced)."""
        return maybe_span(
            self._env.tracer, name, model_id=self.model_id,
            user_id=self.user.principal_id, transport="http",
        )

    def _body(self, enc_request: bytes, **extra) -> dict:
        return {
            "model_id": self.model_id,
            "uid": self.user.principal_id,
            "enc_request": enc_request,
            **extra,
        }

    def _post(self, span_name: str, path: str, x: np.ndarray, finish, **extra):
        """Seal ``x`` and POST it under one client span; ``finish`` the reply."""
        with self._span(span_name) as root:
            enc_request = self.user.encrypt_request(
                self.model_id, self.measurement, x
            )
            return finish(self._client.call(
                "POST", path, self._body(enc_request, **extra),
                span=root, codec=wire.BINARY,
            ))

    def _decrypt(self, reply: dict) -> np.ndarray:
        return self.user.decrypt_response(
            self.model_id, self.measurement, reply["enc_response"]
        )

    def stream(
        self, prompt: Sequence[int], max_new_tokens: int
    ) -> "RemoteStream":
        """Open an autoregressive stream; iterate decrypted token ids.

        The remote twin of :meth:`UserSession.stream
        <repro.core.deployment.UserSession.stream>`: the prompt is
        sealed locally with the stream AAD, POSTed to ``/v1/stream``,
        and the sealed token frames arrive as chunked records
        (:class:`HttpStream`) which the returned :class:`RemoteStream`
        authenticates, index-checks and decrypts one by one -- the
        service tier relays ciphertext only.
        """
        with self._span("stream") as root:
            enc_request = self.user.encrypt_stream_request(
                self.model_id, self.measurement, prompt, max_new_tokens
            )
            return RemoteStream(self, self._client.open_stream(
                "/v1/stream", self._body(enc_request), span=root
            ))

    def infer_many(
        self, xs: Sequence[np.ndarray], window: Optional[int] = None
    ) -> List[np.ndarray]:
        """Pipelined batch serving over HTTP, outputs in input order.

        The default window is the service's advertised ``feed_window``
        (two full batches when the accumulator is armed), so the remote
        session feeds the batch window exactly like the in-process one.
        ``QueueFull`` (service shed *or* fleet saturation) drains the
        oldest in-flight future and retries -- the batch absorbs its
        own backpressure
        (:func:`~repro.core.futures.gather_windowed`).
        """
        if window is None:
            window = self.handle.feed_window
        return gather_windowed(self.submit, xs, lambda _first: window)

    def close(self) -> None:
        """Sessions hold no server-side state; nothing to tear down."""

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


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


class RemoteFuture(_ConsumerFed):
    """A submitted request's client handle: the outcome cell, fed over HTTP.

    The same :class:`~repro.core.futures.Future` contract as
    :class:`~repro.core.deployment.SessionFuture` because it *is* the
    cell, fed by its consumers: a wait long-polls ``GET
    /v1/results/{id}`` -- one poller at a time, the server hands the
    output out once (sticky 410 after) -- and seals the decrypted output
    (200) or the server's error (4xx/5xx); :meth:`cancel` seals the
    cancellation an accepted ``DELETE`` promises (the enclave execution
    context is released server-side).  Once sealed, ``result()`` is
    repeatable and nothing costs a round trip.
    """

    _FEED_CAP_S = 5.0

    def __init__(self, session: RemoteSession, req_id: str) -> None:
        super().__init__()
        self._session = session
        self.req_id = req_id
        self._path = f"/v1/results/{req_id}"

    def _what(self) -> str:
        return f"request {self.req_id}"

    def done(self) -> bool:
        """Terminal yet?  One non-blocking poll while the answer is unknown."""
        return self.wait(0.0)

    def cancel(self) -> bool:
        """DELETE the request; ``True`` when the server cancelled it."""
        if not self._done:
            reply = self._session._client.call("DELETE", self._path)
            if reply.get("cancelled"):
                super().cancel()
                self.set_cancelled()
        return self._cancelled

    def _feed(self, chunk_s: float) -> None:
        """One ``GET``; seals the cell unless the server answers 202."""
        status, reply, _ = self._session._client.request(
            "GET", self._path, query={"timeout_s": f"{chunk_s:.3f}"},
            codec=wire.BINARY,
        )
        if status == 202:
            return  # still in flight
        try:
            if status >= 400:
                raise from_wire(reply, status)
            self.set_result(self._session._decrypt(reply))
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

    def __init__(self, conn, response) -> None:
        super().__init__()
        self._conn = conn
        self._response = response

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
            frame = read_record(self._response.read)
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


class RemoteStream(TokenStream):
    """A live autoregressive stream consumed over HTTP.

    Returned by :meth:`RemoteSession.stream`: the client half of the
    streaming protocol (:class:`~repro.core.client.TokenStream`, the
    very class behind :class:`~repro.core.deployment.SessionStream`)
    over an :class:`HttpStream` -- see its transport caveat: a
    ``result(timeout_s=...)`` expiry or a ``cancel()`` closes the
    socket, so the stream cannot be resumed afterwards.
    """


__all__ = [
    "HttpStream",
    "RemoteEnvironment",
    "RemoteFuture",
    "RemoteModelHandle",
    "RemoteSession",
    "RemoteStream",
    "ServiceClient",
    "RemoteKeyService",
]
