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
import struct
import threading
import time
from typing import Dict, List, Optional, Sequence, Union
from urllib.parse import urlencode, urlsplit

import numpy as np

from repro.core import wire
from repro.core.client import UserClient
from repro.core.futures import OutcomeCell, gather_windowed
from repro.errors import (
    DeadlineExceeded,
    ReproError,
    SeSeMIError,
    TransportError,
    from_wire,
)
from repro.obs.tracer import Tracer, maybe_span
from repro.sgx.attestation import AttestationService
from repro.sgx.measurement import EnclaveMeasurement


#: media type of the binary wire framing (must match the server)
BINARY_CONTENT_TYPE = "application/x-sesemi-wire"

#: high bit of a stream record's length prefix: terminal error record
#: instead of a sealed frame (must match ``repro.service.server``)
STREAM_ERROR_FLAG = 0x80000000


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
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
            self._local.conn = conn
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        query: Optional[Dict[str, str]] = None,
        headers: Optional[Dict[str, str]] = None,
        codec: wire.WireCodec = wire.JSON,
    ):
        """One round trip: ``(status, payload_dict, response_headers)``."""
        body = wire.dumps(payload, codec=codec) if payload is not None else b""
        target = path + ("?" + urlencode(query) if query else "")
        if codec is wire.BINARY:
            send_headers = {
                "Content-Type": BINARY_CONTENT_TYPE,
                "Accept": BINARY_CONTENT_TYPE,
            }
        else:
            send_headers = {"Content-Type": "application/json"}
        if headers:
            send_headers.update(headers)
        for attempt in (0, 1):  # retry once over a stale keep-alive conn
            conn = self._connection()
            try:
                conn.request(method, target, body=body, headers=send_headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, ConnectionError,
                    socket.timeout, OSError) as exc:
                self._drop_connection()
                if attempt == 1:
                    raise TransportError(
                        f"{method} {path} failed: {exc}"
                    ) from exc
        try:
            reply = wire.loads(raw) if raw else {}
        except wire.WireError:
            reply = {"error": "", "message": raw.decode("latin-1", "replace")}
        return response.status, reply, dict(response.getheaders())

    def call(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        query: Optional[Dict[str, str]] = None,
        headers: Optional[Dict[str, str]] = None,
        codec: wire.WireCodec = wire.JSON,
    ) -> dict:
        """Like :meth:`request` but raises the server's error on >= 400."""
        status, reply, _ = self.request(
            method, path, payload, query, headers, codec=codec
        )
        if status >= 400:
            raise from_wire(reply, status)
        return reply

    def open_stream(
        self,
        path: str,
        payload: dict,
        headers: Optional[Dict[str, str]] = None,
    ):
        """POST and return the live response for incremental reads.

        Streaming responses get a **dedicated** connection (not the
        per-thread keep-alive one): the body is read as the server
        decodes, so the connection cannot be reused until the stream
        drains -- and an abandoned stream must close its socket to tell
        the server to stop decoding.  Returns ``(connection, response,
        response_headers)``; the caller owns closing the connection.
        An HTTP error status raises the server's exception immediately.
        """
        body = wire.dumps(payload, codec=wire.BINARY)
        send_headers = {
            "Content-Type": BINARY_CONTENT_TYPE,
            "Accept": BINARY_CONTENT_TYPE,
        }
        if headers:
            send_headers.update(headers)
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            conn.request("POST", path, body=body, headers=send_headers)
            response = conn.getresponse()
        except (http.client.HTTPException, ConnectionError,
                socket.timeout, OSError) as exc:
            conn.close()
            raise TransportError(f"POST {path} failed: {exc}") from exc
        if response.status >= 400:
            raw = response.read()
            conn.close()
            try:
                reply = wire.loads(raw) if raw else {}
            except wire.WireError:
                reply = {"error": "", "message": raw.decode("latin-1", "replace")}
            raise from_wire(reply, response.status)
        return conn, response, dict(response.getheaders())

    def close(self) -> None:
        """Close this thread's keep-alive connection."""
        self._drop_connection()


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
        self.user = user
        self.handle = handle
        self.model_id = handle.model_id
        self.measurement = handle.measurement

    @property
    def _client(self) -> ServiceClient:
        return self._env.client

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

    def _post(self, span_name: str, path: str, x: np.ndarray, finish, **extra):
        """Seal ``x`` and POST it under one client span; ``finish`` the reply."""
        with maybe_span(
            self._env.tracer,
            span_name,
            model_id=self.model_id,
            user_id=self.user.principal_id,
            transport="http",
        ) as root:
            enc_request = self.user.encrypt_request(
                self.model_id, self.measurement, x
            )
            status, reply, headers = self._client.request(
                "POST", path,
                {
                    "model_id": self.model_id,
                    "uid": self.user.principal_id,
                    "enc_request": enc_request,
                    **extra,
                },
                headers=self._span_headers(root),
                codec=wire.BINARY,
            )
            self._join_trace(root, headers)
            if status >= 400:
                raise from_wire(reply, status)
            return finish(reply)

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
        and token frames arrive as chunked records which the returned
        :class:`RemoteStream` authenticates, index-checks, and decrypts
        one by one -- the service tier relays ciphertext only.
        """
        tracer = self._env.tracer
        with maybe_span(
            tracer,
            "stream",
            model_id=self.model_id,
            user_id=self.user.principal_id,
            transport="http",
        ) as root:
            enc_request = self.user.encrypt_stream_request(
                self.model_id, self.measurement, prompt, max_new_tokens
            )
            conn, response, headers = self._client.open_stream(
                "/v1/stream",
                {
                    "model_id": self.model_id,
                    "uid": self.user.principal_id,
                    "enc_request": enc_request,
                },
                headers=self._span_headers(root),
            )
            self._join_trace(root, headers)
            return RemoteStream(self, conn, response)

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

    def _span_headers(self, span) -> Optional[Dict[str, str]]:
        if span is None:
            return None
        return {"x-client-span": span.span_id}

    def _join_trace(self, span, headers: Dict[str, str]) -> None:
        """Record the server-side trace id so the two trees join."""
        if span is None:
            return
        trace_id = headers.get("x-trace-id") or headers.get("X-Trace-Id")
        if trace_id:
            span.set_attributes(server_trace_id=trace_id)

    def close(self) -> None:
        """Sessions hold no server-side state; nothing to tear down."""

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class RemoteFuture(OutcomeCell):
    """A submitted request's client handle: the outcome cell, fed over HTTP.

    The same :class:`~repro.core.futures.Future` contract as
    :class:`~repro.core.deployment.SessionFuture` because it *is* the
    cell, with the consuming thread as producer: :meth:`wait` long-polls
    ``GET /v1/results/{id}`` and seals the decrypted output (200) or the
    server's error (4xx/5xx); :meth:`cancel` seals the cancellation an
    accepted ``DELETE`` promises (the enclave execution context is
    released server-side).  Once sealed every call answers from the
    cell: ``result()`` is repeatable and nothing costs a round trip.
    """

    _POLL_CHUNK_S = 5.0

    def __init__(self, session: RemoteSession, req_id: str) -> None:
        super().__init__()
        self._session = session
        self.req_id = req_id
        self._path = f"/v1/results/{req_id}"
        #: held by the one thread currently polling: the server hands the
        #: output out once (sticky 410 after), so polls must not overlap
        self._poller = threading.Lock()

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

    def wait(self, timeout_s: Optional[float] = None) -> bool:
        """Long-poll until sealed; ``False`` on timeout (``0`` = one poll)."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while not self._done:
            chunk = self._POLL_CHUNK_S
            if deadline is not None:
                chunk = min(chunk, max(0.0, deadline - time.monotonic()))
            if self._poller.acquire(blocking=False):
                try:
                    self._poll(chunk)
                finally:
                    self._poller.release()
            else:  # another thread is the producer right now
                super().wait(chunk)
            if chunk == 0.0:
                break
        return self._done

    def _poll(self, chunk_s: float) -> None:
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


class RemoteStream:
    """A live autoregressive stream consumed over HTTP.

    The remote twin of :class:`~repro.core.deployment.SessionStream`:
    iterating yields decrypted token ids as the chunked records arrive;
    each sealed frame is AEAD-authenticated and index-checked locally,
    so a relay that drops, reorders, or replays frames surfaces as
    :class:`~repro.errors.InvocationError`, never as a silently wrong
    sequence.  Satisfies the :class:`~repro.core.futures.Future`
    protocol -- ``result()`` drains the stream and returns the full
    token list.

    One transport caveat: the stream *is* the connection.  A
    ``result(timeout_s=...)`` expiry or a :meth:`cancel` closes the
    socket -- the server notices and stops decoding (releasing the
    enclave stream context), but unlike the in-process handles the
    stream cannot be resumed afterwards.
    """

    def __init__(self, session: RemoteSession, conn, response) -> None:
        self._session = session
        self._conn = conn
        self._response = response
        self._opened_at = time.monotonic()
        self._tokens: List[int] = []
        self._finished = False
        self._cancelled = False
        self._error: Optional[BaseException] = None
        self._first_at: Optional[float] = None
        self._last_at: Optional[float] = None

    # -- the Future protocol -------------------------------------------------------

    def done(self) -> bool:
        """True once the stream has drained, failed, or been cancelled."""
        return self._finished or self._error is not None

    def cancelled(self) -> bool:
        """True when :meth:`cancel` tore the stream down."""
        return self._cancelled

    def cancel(self) -> bool:
        """Abandon the stream; ``False`` once it is already terminal.

        Closing the socket is the cancellation signal: the server's
        write fails at the next frame and it cancels the gateway
        stream, releasing the enclave KV/stream context.
        """
        if self.done():
            return False
        self._cancelled = True
        self._finished = True
        self._close()
        return True

    def result(self, timeout_s: Optional[float] = None) -> List[int]:
        """Drain the stream and return the full decrypted token list.

        ``timeout_s`` follows the repo-wide wait rule -- but on this
        transport an expiry closes the connection (see class docs), so
        a timed-out remote stream is dead, not resumable.
        """
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        for _ in self._iter_from(len(self._tokens), deadline):
            pass
        if self._error is not None:
            raise self._error
        return list(self._tokens)

    # -- streaming consumption -----------------------------------------------------

    def __iter__(self):
        """Yield decrypted token ids in decode order as frames arrive."""
        return self._iter_from(0, None)

    @property
    def token_count(self) -> int:
        return len(self._tokens)

    @property
    def ttft_s(self) -> Optional[float]:
        """Seconds from the POST to the first decrypted token."""
        if self._first_at is None:
            return None
        return self._first_at - self._opened_at

    @property
    def tokens_per_s(self) -> Optional[float]:
        """Decode throughput over the tokens received so far."""
        if self._first_at is None or self._last_at is None:
            return None
        elapsed = self._last_at - self._opened_at
        if elapsed <= 0:
            return None
        return len(self._tokens) / elapsed

    # -- internals -----------------------------------------------------------------

    def _iter_from(self, start: int, deadline: Optional[float]):
        index = start
        while True:
            while index < len(self._tokens):
                token = self._tokens[index]
                index += 1
                yield token
            if self.done():
                if index >= len(self._tokens) and self._error is not None:
                    raise self._error
                if index >= len(self._tokens):
                    return
                continue
            self._read_record(deadline)

    def _read_record(self, deadline: Optional[float]) -> None:
        """Read one chunked record off the socket and absorb it."""
        try:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlineExceeded(
                        "remote stream not drained within the timeout"
                    )
                sock = getattr(self._conn, "sock", None)
                if sock is not None:
                    sock.settimeout(remaining)
            prefix = self._read_exact(4, eof_ok=True)
            if prefix is None:
                self._finished = True
                self._close()
                return
            (length,) = struct.unpack(">I", prefix)
            if length & STREAM_ERROR_FLAG:
                body = self._read_exact(length & ~STREAM_ERROR_FLAG)
                payload = wire.loads(body)
                raise from_wire(payload, payload.get("status"))
            frame = self._read_exact(length)
            session = self._session
            payload = session.user.decrypt_frame(
                session.model_id,
                session.measurement,
                frame,
                expected_index=len(self._tokens),
            )
            now = time.monotonic()
            if self._first_at is None:
                self._first_at = now
            self._last_at = now
            self._tokens.append(payload["token"])
            if payload["done"]:
                self._drain_terminator()
                self._finished = True
                self._close()
        except (socket.timeout, TimeoutError) as exc:
            self._error = DeadlineExceeded(
                "remote stream not drained within the timeout"
            )
            self._close()
            raise self._error from exc
        except BaseException as exc:
            # a deadline expiry is terminal too: the socket is closed
            # below, so the stream can never resume (the class docstring's
            # transport caveat) -- sealing the outcome keeps done() honest
            if self._error is None:
                self._error = exc
            self._close()
            raise

    def _drain_terminator(self) -> None:
        """Consume the end-of-body after the final frame (keeps HTTP honest)."""
        try:
            self._response.read()
        except Exception:
            pass

    def _read_exact(self, n: int, eof_ok: bool = False) -> Optional[bytes]:
        chunks: List[bytes] = []
        needed = n
        while needed:
            chunk = self._response.read(needed)
            if not chunk:
                if eof_ok and needed == n:
                    return None
                raise TransportError("stream truncated mid-record")
            chunks.append(chunk)
            needed -= len(chunk)
        return b"".join(chunks)

    def _close(self) -> None:
        try:
            self._conn.close()
        except Exception:
            pass


__all__ = [
    "RemoteEnvironment",
    "RemoteFuture",
    "RemoteModelHandle",
    "RemoteSession",
    "RemoteStream",
    "ServiceClient",
    "RemoteKeyService",
]
