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

**One request lifecycle**: the three inference routes share one
admitted-request path (:meth:`InferenceService._admitted`).  Rate and
inflight checks run synchronously on the event loop; a shed request
costs microseconds and never touches an executor thread, the gateway,
or an enclave.  Admitted work runs in a bounded thread pool (the
gateway surface is blocking), with the request's HTTP root span
attached so route and ECALL spans parent under it -- one server-side
trace covers service -> gateway -> ECALL, and the ``x-trace-id``
response header lets the client join its own span to it.  Of a
submitted request the tier owns one bit, *handed out yet?*: running,
failed and cancelled are read off the sealed, repeatable
:class:`~repro.core.gateway.GatewaySubmission` it holds, on the
event-loop thread (``docs/service.md``).
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

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
from repro.service.protocol import (
    BINARY_CONTENT_TYPE,
    content_type,
    error_record,
    frame_record,
)

_RESULTS_PREFIX = "/v1/results/"

#: per-request response codec, set by content negotiation in ``_handle``:
#: binary when the client POSTed a binary frame or sent an ``Accept``
#: naming the binary media type, canonical JSON otherwise -- so JSON
#: clients (curl, old SDKs) keep JSON replies on every route.
_RESPONSE_CODEC: "contextvars.ContextVar[wire.WireCodec]" = (
    contextvars.ContextVar("sesemi_response_codec", default=wire.JSON)
)


@dataclass
class _Entry:
    """One submitted request: its handle plus *handed out yet?*"""

    submission: GatewaySubmission
    release: Callable[[], None]
    created: float
    span: object
    consumed: bool = False


def _seconds(value: Any) -> float:
    """A client's ``timeout_s``: finite seconds >= 0 (``0``: do not wait)."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        seconds = math.nan
    if isinstance(value, bool) or not 0 <= seconds < math.inf:
        raise InvocationError("timeout_s must be a finite number of seconds >= 0")
    return seconds


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
        # every admitted request can block a thread at once; the spare
        # ones keep polls and the KeyService proxy moving at saturation
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_inflight_total + 4,
            thread_name_prefix="svc",
        )
        #: submitted requests by ``req_id`` (event-loop thread only)
        self._entries: Dict[str, _Entry] = {}
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
        return self._json(*to_wire(StorageError(f"no route {method} {path}")))

    def _negotiate_codec(self, request: HttpRequest) -> wire.WireCodec:
        """Pick the response codec for one request (see module notes)."""
        if BINARY_CONTENT_TYPE in request.headers.get("accept", ""):
            return wire.BINARY
        if request.body[:1] == bytes([wire.BINARY.version]):
            return wire.BINARY
        return wire.JSON

    def _map_error(self, exc: BaseException) -> HttpResponse:
        """Last-resort mapper the HTTP layer calls for unhandled errors."""
        return self._json(*to_wire(exc))

    def _count(self, route: str) -> None:
        self._counters[route] = self._counters.get(route, 0) + 1

    def _on_executor(self, call: Callable[..., Any], *args):
        """Awaitable: ``call(*args)`` on the executor, off the event loop."""
        return asyncio.get_running_loop().run_in_executor(
            self._executor, call, *args
        )

    # -- plain endpoints ----------------------------------------------------------

    def _healthz(self) -> HttpResponse:
        return self._json(200, {
            "ok": True,
            "inflight": self.admission.inflight_total,
            "endpoints": self.gateway.endpoint_count,
        })

    def _stats(self) -> HttpResponse:
        pending = sum(
            1 for e in self._entries.values()
            if not (e.consumed or e.submission.cancelled())
        )
        payload = {
            "admission": self.admission.stats(),
            "gateway": {
                "in_flight": self.gateway.in_flight,
                "endpoints": self.gateway.endpoint_count,
            },
            "service": {
                "requests": dict(self._counters),
                "results_pending": pending,
                "results_retained": len(self._entries),
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
        msg = self._decode(request, offer=dict)
        reply = await self._on_executor(self.env.keyservice.handshake, msg["offer"])
        return self._json(200, reply)

    async def _ks_call(self, request: HttpRequest) -> HttpResponse:
        self._count("ks_call")
        msg = self._decode(request, channel_id=int, ciphertext=bytes)
        reply = await self._on_executor(
            self.env.keyservice.request, msg["channel_id"], msg["ciphertext"]
        )
        return self._json(200, {"reply": reply})

    async def _grants(self, request: HttpRequest) -> HttpResponse:
        """Owner-side half of a grant: GRANT_ACCESS for ``uid``.

        The user's own half (ADD_REQ_KEY) runs client-side over the KS
        proxy -- the service never sees a request key.
        """
        self._count("grants")
        msg = self._decode(request, model_id=str, uid=str)
        handle = self._handle_for(msg["model_id"])
        await self._on_executor(
            handle.owner.grant_access, handle.model_id, handle.measurement,
            msg["uid"],
        )
        return self._json(200, {
            "ok": True, "measurement": handle.measurement.value,
        })

    # -- inference ----------------------------------------------------------------

    async def _admitted(
        self,
        route: str,
        request: HttpRequest,
        call: Callable[..., Any],
        finish: Callable[[Any, Callable[[], None], Any], Any],
    ):
        """The one path an inference request takes into the fleet.

        Decode and validate, look the model up, admit (synchronous and
        O(1): a shed never leaves the loop), open the ``http:<route>``
        root span, then run ``call(enc_request, uid, model_id, msg)`` on
        the executor with that span attached: the admission-time
        ``route`` span parents under it, and -- the endpoint scheduler
        captures the ambient span at submit time -- so do the worker's
        ECALL spans.  Whatever ``call`` raises releases the slot and is
        the reply; else ``finish(outcome, release, span)`` owns both.
        """
        self._count(route)
        msg = self._decode(request, model_id=str, uid=str, enc_request=bytes)
        model_id, uid = msg["model_id"], msg["uid"]
        self._handle_for(model_id)
        release = self.admission.admit(uid)
        client_span = request.headers.get("x-client-span")
        span = self.tracer.start_span(
            f"http:{route}", parent=None, model_id=model_id, tenant=uid,
            **({"client_span": client_span} if client_span else {}),
        )
        try:
            outcome = await self._on_executor(
                self._attached, span, call, msg["enc_request"], uid, model_id, msg
            )
        except BaseException as exc:
            release()
            self._end_span(span, error=exc)
            if not isinstance(exc, Exception):
                raise  # the loop cancelling this handler is not a reply
            return self._json(*to_wire(exc), span=span)
        return finish(outcome, release, span)

    def _attached(self, span, call, *args):
        with self.tracer.attach(span):
            return call(*args)

    async def _infer(self, request: HttpRequest) -> HttpResponse:
        cap = self.config.default_deadline_s

        def dispatch(enc_request, uid, model_id, msg):
            # ``timeout_s`` is the wire field (docs/service.md)
            return self.gateway.dispatch(
                enc_request, uid, model_id,
                timeout_s=min(msg.get("timeout_s", cap), cap),
            )

        def served(reply, release, span) -> HttpResponse:
            release()
            self._end_span(span, endpoint=reply.decision.endpoint)
            return self._json(200, {
                "enc_response": reply.output,
                "endpoint": reply.decision.endpoint,
            }, span=span)

        return await self._admitted("infer", request, dispatch, served)

    async def _submit(self, request: HttpRequest) -> HttpResponse:
        def submit(enc_request, uid, model_id, msg):
            return self.gateway.submit(enc_request, uid, model_id)

        def accepted(submission, release, span) -> HttpResponse:
            req_id = f"r-{next(self._req_ids)}"
            self._entries[req_id] = _Entry(
                submission, release, time.monotonic(), span
            )
            self._end_span(span, endpoint=submission.endpoint, req_id=req_id)
            return self._json(202, {
                "req_id": req_id, "endpoint": submission.endpoint,
            }, span=span)

        return await self._admitted("submit", request, submit, accepted)

    async def _stream(self, request: HttpRequest):
        """Open an autoregressive stream; the reply body is chunked.

        Admission failures surface as an ordinary error response; once
        the gateway stream is open the reply commits to ``200`` with a
        chunked body of records (:mod:`repro.service.protocol`): one per
        sealed frame, and -- because a failure *mid-decode* cannot
        change the status line any more -- one final error record the
        client SDK rebuilds the typed exception from.  The blocking
        gateway iterator runs on the executor and feeds the event loop
        through an ``asyncio.Queue``, so one slow stream never stalls
        the loop.
        """
        loop = asyncio.get_running_loop()

        def open_stream(enc_request, uid, model_id, msg):
            return self.gateway.open_stream(enc_request, uid, model_id)

        def opened(handle, release, span) -> StreamingHttpResponse:
            queue: asyncio.Queue = asyncio.Queue()
            # how the executor thread hands the loop a record (None: the end)
            put = functools.partial(loop.call_soon_threadsafe, queue.put_nowait)

            def pump() -> None:
                error: Optional[BaseException] = None
                try:
                    for frame in handle:
                        put(frame_record(frame))
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
                    # the slot is free before the client can see the end
                    if error is not None:
                        put(error_record(error))
                    put(None)

            async def records():
                try:
                    while (record := await queue.get()) is not None:
                        yield record
                finally:
                    # a torn connection abandons the generator: stop decoding
                    # so the enclave stream context is released promptly
                    handle.cancel()

            self._executor.submit(pump)
            return StreamingHttpResponse(
                records(),
                content_type=BINARY_CONTENT_TYPE,
                headers={"x-trace-id": span.trace_id},
            )

        return await self._admitted("stream", request, open_stream, opened)

    # -- results ------------------------------------------------------------------

    async def _results(self, req_id: str, query: Dict[str, str]) -> HttpResponse:
        self._count("results")
        wait = _seconds(query.get("timeout_s") or 0)
        entry = self._entry(req_id)
        submission = entry.submission
        peek = query.get("peek") in ("1", "true")
        if wait > 0 and not (peek or submission.done() or submission.cancelled()):
            # the long-poll: non-consuming, and the only executor hop --
            # a sealed handle answers everything below without blocking
            await self._on_executor(
                submission.wait, min(wait, self.config.poll_wait_cap_s)
            )
        # no await from here on: each reply is decided, and the entry
        # changed, in one step on the event-loop thread
        if entry.consumed:
            return self._json(410, {
                "error": "ResultConsumed",
                "message": "result already fetched",
            })
        if submission.cancelled():  # sticky, and true before the worker knows
            return self._json(*to_wire(
                RequestCancelled("request was cancelled; result discarded")
            ))
        if peek:
            return self._json(200, {"done": submission.done()})
        if not submission.done():
            return self._json(202, {"done": False})
        try:
            output = submission.result(timeout_s=0)
        except Exception as exc:  # noqa: BLE001 - re-raised on every poll
            entry.release()
            return self._json(*to_wire(exc), span=entry.span)
        entry.consumed = True
        entry.release()
        return self._json(
            200, {"enc_response": output, "done": True}, span=entry.span
        )

    async def _cancel(self, req_id: str) -> HttpResponse:
        self._count("cancel")
        entry = self._entry(req_id)
        if entry.submission.cancel():
            entry.release()
        return self._json(200, {"cancelled": entry.submission.cancelled()})

    def _entry(self, req_id: str) -> _Entry:
        entry = self._entries.get(req_id)
        if entry is None:
            raise StorageError(f"unknown request id {req_id!r}")
        return entry

    async def _sweep_loop(self) -> None:
        """Expire terminal/abandoned results so slots cannot leak.

        The same cadence drives the gateway's warm-pool housekeeping
        (janitor retirements + predictive pre-warming) when it is
        armed; retiring can block on a drain, so it runs on the
        executor, never the event loop.
        """
        interval = max(0.5, self.config.result_ttl_s / 4)
        pool = self.gateway.warm_pool
        if pool is not None:
            interval = min(interval, max(0.25, pool.config.keep_alive_s / 4))
        while True:
            await asyncio.sleep(interval)
            if pool is not None:
                await self._on_executor(self.gateway.maintain)
            cutoff = time.monotonic() - self.config.result_ttl_s
            expired = [
                req_id for req_id, entry in self._entries.items()
                if entry.created < cutoff
            ]
            for req_id in expired:
                entry = self._entries.pop(req_id)
                submission = entry.submission
                if not submission.cancel():
                    # sealed but never fetched: a refused cancel settles
                    # nothing, consuming the outcome releases the request
                    try:
                        submission.result(timeout_s=0)
                    except Exception:  # noqa: BLE001 - nobody is left to tell
                        pass
                entry.release()

    # -- helpers ------------------------------------------------------------------

    def _handle_for(self, model_id: str) -> ModelHandle:
        handle = self.handles.get(model_id)
        if handle is None:
            raise StorageError(f"model {model_id!r} is not served here")
        return handle

    def _decode(self, request: HttpRequest, **fields: type) -> dict:
        """Decode and validate one body -- the only door for outside input.

        ``fields`` are the required fields and their types (a ``bool`` is
        no ``int`` here); ``timeout_s`` is optional.  A refusal is a 400.
        """
        try:
            msg = wire.loads(request.body)
        except wire.WireError as exc:
            raise InvocationError(f"malformed body: {exc}") from exc
        for key, kind in fields.items():
            if key not in msg:
                raise InvocationError(f"missing field {key!r}")
            value = msg[key]
            if not isinstance(value, kind) or isinstance(value, bool):
                raise InvocationError(
                    f"field {key!r} must be {kind.__name__}, "
                    f"not {type(value).__name__}"
                )
        if "timeout_s" in msg:
            msg["timeout_s"] = _seconds(msg["timeout_s"])
        return msg

    def _end_span(self, span, *, error: Optional[BaseException] = None,
                  **attrs) -> None:
        if attrs:
            span.set_attributes(**attrs)
        span.end(status="error" if error is not None else "ok")

    def _json(self, status: int, payload: dict, span=None) -> HttpResponse:
        codec = _RESPONSE_CODEC.get()
        response = HttpResponse(
            status=status,
            body=wire.dumps(payload, codec=codec),
            content_type=content_type(codec),
        )
        if span is not None:
            # lets the client join its span to the server-side trace
            response.headers["x-trace-id"] = span.trace_id
        return response


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
