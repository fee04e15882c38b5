"""The inference service: HTTP endpoints over an InferenceGateway.

One :class:`InferenceService` owns the network front door for one
gateway fleet:

========================== ==============================================
``POST /v1/ks/handshake``  RA-TLS handshake proxy to KeyService
``POST /v1/ks/call``       encrypted KeyService op proxy (register,
                           ADD_REQ_KEY, ... -- opaque to the service)
``POST /v1/grants``        owner-side GRANT_ACCESS for a user id
``GET  /v1/meta``          model catalogue: measurements, tcs_count,
                           batch ``feed_window``
``POST /v1/infer``         sync inference: wait for the sealed output
``POST /v1/submit``        async inference: 202 + ``req_id``
``POST /v1/stream``        autoregressive stream: chunked body of
                           length-prefixed sealed token frames
``GET  /v1/results/{id}``  poll/long-poll a submitted request
``DELETE /v1/results/{id}`` cancel (releases the enclave context)
``GET  /v1/healthz``       liveness + inflight
``GET  /v1/stats``         admission/shed counters, gateway state
========================== ==============================================

Bodies are :mod:`repro.core.wire` frames, decoded through the
versioned :func:`~repro.core.wire.loads` dispatcher: clients may POST
canonical JSON or the binary framing, and the response codec is
negotiated per request -- binary when the request body was binary or
the ``Accept`` header names ``application/x-sesemi-wire``, JSON
otherwise (so curl and old SDKs keep JSON).  KeyService proxy routes
are normally JSON end to end.  Exceptions map to the canonical
taxonomy in :mod:`repro.errors` (``to_wire``/``from_wire``), so a
:class:`~repro.errors.QueueFull` shed here and one raised by a
saturated enclave queue look identical to the client.

**Admission before work**: rate/inflight checks run synchronously on
the event loop; a shed request costs microseconds and never touches an
executor thread, the gateway, or an enclave.  Admitted work runs in a
bounded thread pool (the gateway surface is blocking), with the
request's HTTP root span attached so route and ECALL spans parent
under it -- one server-side trace covers service -> gateway -> ECALL,
and the ``x-trace-id`` response header lets the client join its own
span to it (``docs/service.md``).
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.core import wire
from repro.core.deployment import ModelHandle, SeSeMIEnvironment
from repro.core.gateway import GatewaySubmission, InferenceGateway
from repro.core.semirt import SchedulerConfig
from repro.core.semirt_enclave import default_semirt_config
from repro.errors import (
    InvocationError,
    ReproError,
    RequestCancelled,
    StorageError,
    to_wire,
)
from repro.service.admission import AdmissionController
from repro.service.config import ServiceConfig
from repro.service.httpd import (
    AsyncHttpServer,
    HttpRequest,
    HttpResponse,
    StreamingHttpResponse,
)

_RESULTS_PREFIX = "/v1/results/"

#: media type of the binary wire framing (version byte 0x01)
BINARY_CONTENT_TYPE = "application/x-sesemi-wire"

#: high bit of a stream record's ``u32`` length prefix: the record is a
#: terminal wire-encoded error payload, not a sealed token frame (the
#: status line was already sent when the stream began)
STREAM_ERROR_FLAG = 0x80000000

#: per-request response codec, set by content negotiation in ``_handle``:
#: binary when the client POSTed a binary frame or sent an ``Accept``
#: naming the binary media type, canonical JSON otherwise -- so JSON
#: clients (curl, old SDKs) keep JSON replies on every route.
_RESPONSE_CODEC: "contextvars.ContextVar[wire.WireCodec]" = (
    contextvars.ContextVar("sesemi_response_codec", default=wire.JSON)
)


@dataclass
class _Entry:
    """One submitted request's server-side state."""

    submission: GatewaySubmission
    tenant: str
    release: Callable[[], None]
    created: float
    span: Optional[object] = None
    state: str = "pending"  # pending | consumed | cancelled | failed
    error_status: Optional[int] = None
    error_payload: Optional[dict] = None
    lock: threading.Lock = field(default_factory=threading.Lock)


class InferenceService:
    """Serve one gateway fleet over HTTP (see module docstring)."""

    def __init__(
        self,
        env: SeSeMIEnvironment,
        gateway: InferenceGateway,
        handles: Iterable[ModelHandle],
        *,
        config: Optional[ServiceConfig] = None,
        scheduler: Optional[SchedulerConfig] = None,
    ) -> None:
        self.env = env
        self.gateway = gateway
        self.handles: Dict[str, ModelHandle] = {
            handle.model_id: handle for handle in handles
        }
        self.config = config if config is not None else ServiceConfig()
        #: the SchedulerConfig endpoints are launched with (meta report)
        self.scheduler = scheduler
        self.tracer = env.tracer
        self.admission = AdmissionController(self.config)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="svc"
        )
        self._entries: Dict[str, _Entry] = {}
        self._entries_lock = threading.Lock()
        self._req_ids = itertools.count(1)
        self._counters: Dict[str, int] = {}
        self._httpd = AsyncHttpServer(
            self._handle,
            host=self.config.host,
            port=self.config.port,
            max_body_bytes=self.config.max_body_bytes,
            error_mapper=self._map_error,
        )
        self._sweeper: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        return self._httpd.address

    @property
    def base_url(self) -> str:
        host, port = self._httpd.address
        return f"http://{host}:{port}"

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving on the running event loop."""
        address = await self._httpd.start()
        self._sweeper = asyncio.get_running_loop().create_task(
            self._sweep_loop()
        )
        return address

    async def stop(self) -> None:
        """Cancel the sweeper and stop the HTTP server."""
        if self._sweeper is not None:
            self._sweeper.cancel()
            self._sweeper = None
        await self._httpd.stop()

    def start_background(self) -> Tuple[str, int]:
        """Run the service on a dedicated event-loop thread (tests, CLI)."""
        loop = asyncio.new_event_loop()
        self._loop = loop
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.start())
            started.set()
            loop.run_forever()

        self._thread = threading.Thread(
            target=run, name="svc-loop", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=10):
            raise ReproError("service failed to start within 10s")
        return self.address

    def close(self) -> None:
        """Stop the background service (gateway teardown stays the owner's)."""
        loop, thread = self._loop, self._thread
        if loop is not None:
            asyncio.run_coroutine_threadsafe(self.stop(), loop).result(
                timeout=10
            )
            loop.call_soon_threadsafe(loop.stop)
            if thread is not None:
                thread.join(timeout=10)
            loop.close()
            self._loop = None
            self._thread = None
        self._executor.shutdown(wait=False)

    def __enter__(self) -> "InferenceService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- routing ------------------------------------------------------------------

    async def _handle(self, request: HttpRequest) -> HttpResponse:
        _RESPONSE_CODEC.set(self._negotiate_codec(request))
        method, path = request.method, request.path
        if path == "/v1/healthz" and method == "GET":
            return self._healthz()
        if path == "/v1/stats" and method == "GET":
            return self._stats()
        if path == "/v1/meta" and method == "GET":
            return self._meta()
        if path == "/v1/ks/handshake" and method == "POST":
            return await self._ks_handshake(request)
        if path == "/v1/ks/call" and method == "POST":
            return await self._ks_call(request)
        if path == "/v1/grants" and method == "POST":
            return await self._grants(request)
        if path == "/v1/infer" and method == "POST":
            return await self._infer(request)
        if path == "/v1/submit" and method == "POST":
            return await self._submit(request)
        if path == "/v1/stream" and method == "POST":
            return await self._stream(request)
        if path.startswith(_RESULTS_PREFIX):
            req_id = path[len(_RESULTS_PREFIX):]
            if method == "GET":
                return await self._results(req_id, request.query)
            if method == "DELETE":
                return await self._cancel(req_id)
        status, payload = to_wire(
            StorageError(f"no route {method} {path}")
        )
        return self._json(status, payload)

    def _negotiate_codec(self, request: HttpRequest) -> wire.WireCodec:
        """Pick the response codec for one request (see module notes)."""
        if BINARY_CONTENT_TYPE in request.headers.get("accept", ""):
            return wire.BINARY
        if request.body[:1] == bytes([wire.BINARY.version]):
            return wire.BINARY
        return wire.JSON

    def _map_error(self, exc: BaseException) -> HttpResponse:
        """Last-resort mapper the HTTP layer calls for unhandled errors."""
        if isinstance(exc, wire.WireError):
            exc = InvocationError(f"malformed body: {exc}")
        status, payload = to_wire(exc)
        return self._json(status, payload)

    def _count(self, route: str) -> None:
        self._counters[route] = self._counters.get(route, 0) + 1

    # -- plain endpoints ----------------------------------------------------------

    def _healthz(self) -> HttpResponse:
        return self._json(200, {
            "ok": True,
            "inflight": self.admission.inflight_total,
            "endpoints": self.gateway.endpoint_count,
        })

    def _stats(self) -> HttpResponse:
        with self._entries_lock:
            pending = sum(
                1 for e in self._entries.values() if e.state == "pending"
            )
            retained = len(self._entries)
        payload = {
            "admission": self.admission.stats(),
            "gateway": {
                "in_flight": self.gateway.in_flight,
                "endpoints": self.gateway.endpoint_count,
            },
            "service": {
                "requests": dict(self._counters),
                "results_pending": pending,
                "results_retained": retained,
            },
        }
        warm = self.gateway.warm_stats()
        if warm is not None:
            payload["warm_pool"] = warm
        return self._json(200, payload)

    def _meta(self) -> HttpResponse:
        models = {}
        batch = self.scheduler.batch if self.scheduler is not None else None
        for model_id, handle in self.handles.items():
            tcs = (handle.config or default_semirt_config()).tcs_count
            models[model_id] = {
                "framework": handle.framework,
                "measurement": handle.measurement.value,
                "tcs_count": tcs,
                "feed_window": (
                    batch.feed_window(tcs) if batch is not None else tcs
                ),
            }
        return self._json(200, {
            "service": self.tracer.service,
            "models": models,
            "keyservice_measurement": self.env.keyservice.measurement.value,
        })

    # -- keyservice proxy ---------------------------------------------------------

    async def _ks_handshake(self, request: HttpRequest) -> HttpResponse:
        self._count("ks_handshake")
        msg = self._decode(request, "offer")
        loop = asyncio.get_running_loop()
        reply = await loop.run_in_executor(
            self._executor, self.env.keyservice.handshake, msg["offer"]
        )
        return self._json(200, reply)

    async def _ks_call(self, request: HttpRequest) -> HttpResponse:
        self._count("ks_call")
        msg = self._decode(request, "channel_id", "ciphertext")
        loop = asyncio.get_running_loop()
        reply = await loop.run_in_executor(
            self._executor,
            self.env.keyservice.request,
            int(msg["channel_id"]),
            msg["ciphertext"],
        )
        return self._json(200, {"reply": reply})

    async def _grants(self, request: HttpRequest) -> HttpResponse:
        """Owner-side half of a grant: GRANT_ACCESS for ``uid``.

        The user's own half (ADD_REQ_KEY) runs client-side over the KS
        proxy -- the service never sees a request key.
        """
        self._count("grants")
        msg = self._decode(request, "model_id", "uid")
        handle = self._handle_for(msg["model_id"])
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            self._executor,
            handle.owner.grant_access,
            handle.model_id,
            handle.measurement,
            msg["uid"],
        )
        return self._json(200, {
            "ok": True, "measurement": handle.measurement.value,
        })

    # -- inference ----------------------------------------------------------------

    async def _infer(self, request: HttpRequest) -> HttpResponse:
        self._count("infer")
        msg = self._decode(request, "model_id", "uid", "enc_request")
        model_id, uid = msg["model_id"], msg["uid"]
        self._handle_for(model_id)
        # ``timeout_s`` is the wire field (docs/service.md)
        wait = msg.get("timeout_s")
        deadline = min(
            float(wait or self.config.default_deadline_s),
            self.config.default_deadline_s,
        )
        # admission is synchronous and O(1): a shed never leaves the loop
        release = self.admission.admit(uid)
        span = self._start_span(
            "http:infer", request, model_id=model_id, tenant=uid
        )
        loop = asyncio.get_running_loop()
        try:
            reply = await loop.run_in_executor(
                self._executor,
                self._dispatch_blocking,
                span,
                msg["enc_request"],
                uid,
                model_id,
                deadline,
            )
        except ReproError as exc:
            return self._fail(span, exc)
        finally:
            release()
        self._end_span(span, endpoint=reply.decision.endpoint)
        return self._json(200, {
            "enc_response": reply.output,
            "endpoint": reply.decision.endpoint,
        }, span=span)

    def _dispatch_blocking(self, span, enc_request, uid, model_id, deadline):
        with self.tracer.attach(span) if span is not None else _noop():
            return self.gateway.dispatch(
                enc_request, uid, model_id, timeout_s=deadline
            )

    async def _submit(self, request: HttpRequest) -> HttpResponse:
        self._count("submit")
        msg = self._decode(request, "model_id", "uid", "enc_request")
        model_id, uid = msg["model_id"], msg["uid"]
        self._handle_for(model_id)
        release = self.admission.admit(uid)
        span = self._start_span(
            "http:submit", request, model_id=model_id, tenant=uid
        )
        loop = asyncio.get_running_loop()
        try:
            submission = await loop.run_in_executor(
                self._executor,
                self._submit_blocking,
                span,
                msg["enc_request"],
                uid,
                model_id,
            )
        except ReproError as exc:
            release()
            return self._fail(span, exc)
        req_id = f"r-{next(self._req_ids)}"
        with self._entries_lock:
            self._entries[req_id] = _Entry(
                submission=submission,
                tenant=uid,
                release=release,
                created=time.monotonic(),
                span=span,
            )
        self._end_span(span, endpoint=submission.endpoint, req_id=req_id)
        return self._json(202, {
            "req_id": req_id,
            "endpoint": submission.endpoint,
            "ticket": submission.ticket,
        }, span=span)

    def _submit_blocking(self, span, enc_request, uid, model_id):
        # the attach parents the admission route span -- and, because the
        # endpoint scheduler captures the ambient span at submit time,
        # the worker's ECALL spans too -- under the HTTP root span
        with self.tracer.attach(span) if span is not None else _noop():
            return self.gateway.submit(enc_request, uid, model_id)

    async def _stream(self, request: HttpRequest):
        """Open an autoregressive stream; the reply body is chunked.

        Admission failures surface as an ordinary error response; once
        the gateway stream is open the reply commits to ``200`` with a
        chunked body of records, each ``u32 length || sealed frame``.
        A failure *mid-decode* cannot change the status line any more,
        so it is sent as one final record with :data:`STREAM_ERROR_FLAG`
        set in the length prefix and the wire-encoded error payload as
        the record body -- the client SDK rebuilds the typed exception.
        The blocking gateway iterator runs on the executor and feeds the
        event loop through an ``asyncio.Queue``, so one slow stream
        never stalls the loop.
        """
        self._count("stream")
        msg = self._decode(request, "model_id", "uid", "enc_request")
        model_id, uid = msg["model_id"], msg["uid"]
        self._handle_for(model_id)
        release = self.admission.admit(uid)
        span = self._start_span(
            "http:stream", request, model_id=model_id, tenant=uid
        )
        loop = asyncio.get_running_loop()
        try:
            handle = await loop.run_in_executor(
                self._executor,
                self._open_stream_blocking,
                span,
                msg["enc_request"],
                uid,
                model_id,
            )
        except ReproError as exc:
            release()
            return self._fail(span, exc)
        queue: asyncio.Queue = asyncio.Queue()

        def pump() -> None:
            error: Optional[BaseException] = None
            try:
                for frame in handle:
                    loop.call_soon_threadsafe(queue.put_nowait, frame)
            except BaseException as exc:
                error = exc
            finally:
                release()
                self._end_span(
                    span,
                    error=error,
                    endpoint=handle.endpoint,
                    frames=handle.token_count,
                )
                # None = clean end of stream; an exception = error record
                loop.call_soon_threadsafe(queue.put_nowait, error)

        self._executor.submit(pump)

        async def records():
            try:
                while True:
                    item = await queue.get()
                    if item is None:
                        return
                    if isinstance(item, BaseException):
                        status, payload = to_wire(item)
                        body = wire.dumps(dict(payload, status=status))
                        yield struct.pack(
                            ">I", STREAM_ERROR_FLAG | len(body)
                        ) + body
                        return
                    yield struct.pack(">I", len(item)) + item
            finally:
                # a torn connection abandons the generator: stop decoding
                # so the enclave stream context is released promptly
                handle.cancel()

        headers = {"x-endpoint": handle.endpoint}
        if handle.ticket is not None:
            headers["x-ticket"] = str(handle.ticket)
        if span is not None:
            headers["x-trace-id"] = span.trace_id
        return StreamingHttpResponse(
            records(), content_type=BINARY_CONTENT_TYPE, headers=headers
        )

    def _open_stream_blocking(self, span, enc_request, uid, model_id):
        with self.tracer.attach(span) if span is not None else _noop():
            return self.gateway.open_stream(enc_request, uid, model_id)

    # -- results ------------------------------------------------------------------

    async def _results(self, req_id: str, query: Dict[str, str]) -> HttpResponse:
        self._count("results")
        entry = self._entry(req_id)
        replay = self._terminal_response(entry)
        if replay is not None:
            return replay
        if query.get("peek") in ("1", "true"):
            return self._json(200, {"done": entry.submission.done()})
        timeout_s = float(query.get("timeout_s", "0") or "0")
        if not entry.submission.done() and timeout_s > 0:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                self._executor,
                entry.submission.wait,
                min(timeout_s, self.config.poll_wait_cap_s),
            )
        if not entry.submission.done():
            return self._json(202, {"done": False})
        loop = asyncio.get_running_loop()
        status, payload = await loop.run_in_executor(
            self._executor, self._fetch_blocking, entry
        )
        return self._json(status, payload, span=entry.span)

    def _fetch_blocking(self, entry: _Entry) -> Tuple[int, dict]:
        with entry.lock:
            replayed = self._terminal_state(entry)
            if replayed is not None:
                return replayed
            try:
                output = entry.submission.result(timeout_s=5.0)
            except RequestCancelled as exc:
                entry.state = "cancelled"
                entry.release()
                return to_wire(exc)
            except ReproError as exc:
                entry.state = "failed"
                entry.error_status, entry.error_payload = to_wire(exc)
                entry.release()
                return entry.error_status, entry.error_payload
            entry.state = "consumed"
            entry.release()
            return 200, {"enc_response": output, "done": True}

    async def _cancel(self, req_id: str) -> HttpResponse:
        self._count("cancel")
        entry = self._entry(req_id)
        with entry.lock:
            if entry.state == "cancelled":
                return self._json(200, {"cancelled": True})
            if entry.state != "pending":
                return self._json(200, {"cancelled": False})
            ok = entry.submission.cancel()
            if ok:
                entry.state = "cancelled"
                entry.release()
        return self._json(200, {"cancelled": ok})

    def _entry(self, req_id: str) -> _Entry:
        with self._entries_lock:
            entry = self._entries.get(req_id)
        if entry is None:
            raise StorageError(f"unknown request id {req_id!r}")
        return entry

    def _terminal_state(self, entry: _Entry) -> Optional[Tuple[int, dict]]:
        """The sticky terminal reply for an entry, if it has one."""
        if entry.state == "cancelled":
            return to_wire(
                RequestCancelled("request was cancelled; result discarded")
            )
        if entry.state == "consumed":
            return 410, {
                "error": "ResultConsumed",
                "message": "result already fetched",
            }
        if entry.state == "failed":
            return entry.error_status, entry.error_payload
        return None

    def _terminal_response(self, entry: _Entry) -> Optional[HttpResponse]:
        terminal = self._terminal_state(entry)
        if terminal is None:
            return None
        status, payload = terminal
        return self._json(status, payload)

    async def _sweep_loop(self) -> None:
        """Expire terminal/abandoned results so slots cannot leak.

        The same cadence drives the gateway's warm-pool housekeeping
        (janitor retirements + predictive pre-warming) when it is
        armed; retiring can block on a drain, so it runs on the
        executor, never the event loop.
        """
        interval = max(0.5, self.config.result_ttl_s / 4)
        if self.config.keep_alive_s is not None:
            interval = min(interval, max(0.25, self.config.keep_alive_s / 4))
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(interval)
            if self.gateway.warm_pool is not None:
                await loop.run_in_executor(self._executor, self.gateway.maintain)
            cutoff = time.monotonic() - self.config.result_ttl_s
            with self._entries_lock:
                expired = [
                    (req_id, entry)
                    for req_id, entry in self._entries.items()
                    if entry.created < cutoff
                ]
                for req_id, _ in expired:
                    del self._entries[req_id]
            for _, entry in expired:
                with entry.lock:
                    if entry.state == "pending":
                        entry.submission.cancel()
                        entry.state = "cancelled"
                    entry.release()

    # -- helpers ------------------------------------------------------------------

    def _handle_for(self, model_id: str) -> ModelHandle:
        handle = self.handles.get(model_id)
        if handle is None:
            raise StorageError(f"model {model_id!r} is not served here")
        return handle

    def _decode(self, request: HttpRequest, *required: str) -> dict:
        try:
            msg = wire.loads(request.body)
        except wire.WireError as exc:
            raise InvocationError(f"malformed body: {exc}") from exc
        for key in required:
            if key not in msg:
                raise InvocationError(f"missing field {key!r}")
        return msg

    def _start_span(self, name: str, request: HttpRequest, **attrs):
        if self.tracer is None:
            return None
        client_span = request.headers.get("x-client-span")
        if client_span:
            attrs["client_span"] = client_span
        return self.tracer.start_span(name, parent=None, **attrs)

    def _end_span(self, span, *, error: Optional[BaseException] = None,
                  **attrs) -> None:
        if span is None:
            return
        if attrs:
            span.set_attributes(**attrs)
        span.end(status="error" if error is not None else "ok")

    def _fail(self, span, exc: ReproError) -> HttpResponse:
        self._end_span(span, error=exc)
        status, payload = to_wire(exc)
        return self._json(status, payload, span=span)

    def _json(self, status: int, payload: dict, span=None) -> HttpResponse:
        codec = _RESPONSE_CODEC.get()
        response = HttpResponse(
            status=status,
            body=wire.dumps(payload, codec=codec),
            content_type=(
                BINARY_CONTENT_TYPE
                if codec is wire.BINARY
                else "application/json"
            ),
        )
        if span is not None:
            # lets the client join its span to the server-side trace
            response.headers["x-trace-id"] = span.trace_id
        return response


class _noop:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def serve(service: InferenceService) -> None:
    """Run ``service`` in the foreground until interrupted (CLI)."""

    async def _run() -> None:
        host, port = await service.start()
        print(f"serving on http://{host}:{port}  (Ctrl-C to stop)")
        try:
            await asyncio.Event().wait()
        finally:
            await service.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass


__all__ = ["InferenceService", "serve"]
