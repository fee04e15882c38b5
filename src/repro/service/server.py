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

**One request lifecycle**: every route is a plain function that runs
on its connection's own thread (:mod:`repro.service.httpd`), end to
end, and the three inference routes share one admitted-request path
(:meth:`InferenceService._admitted`).  Rate and inflight checks run
first; a shed request costs the connection thread microseconds and
never reaches the gateway or an enclave.  Admitted work calls the
blocking gateway surface with the request's HTTP root span attached,
so route and ECALL spans parent under it -- one server-side trace
covers service -> gateway -> ECALL, and the ``x-trace-id`` response
header lets the client join its own span to it.  Of a submitted
request the tier owns one bit, *handed out yet?*: running, failed and
cancelled are read off the sealed, repeatable
:class:`~repro.core.gateway.GatewaySubmission` it holds, and deciding a
reply and consuming the entry is one step under the service's lock
(``docs/service.md``).
"""

from __future__ import annotations

import contextvars
import itertools
import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.core import wire
from repro.core.batching import submit_window
from repro.core.deployment import ModelHandle, SeSeMIEnvironment
from repro.core.gateway import GatewaySubmission, InferenceGateway
from repro.core.semirt import SchedulerConfig
from repro.core.semirt_enclave import ID, SEALED, default_semirt_config
from repro.errors import (
    InvocationError,
    RequestCancelled,
    StorageError,
    to_wire,
)
from repro.service.admission import AdmissionController
from repro.service.config import ServiceConfig
from repro.service.httpd import (
    THREAD_PREFIX,
    HttpRequest,
    HttpResponse,
    HttpServer,
    StreamingHttpResponse,
)
from repro.service.protocol import (
    BINARY_CONTENT_TYPE,
    content_type,
    error_record,
    frame_record,
)
from repro.sgx.enclave import Kind

_RESULTS_PREFIX = "/v1/results/"

#: each POST route's body, in the words of the enclave it is forwarded to
#: (SeMIRT's ids and ciphertext, KeyService's channel ids), so the door
#: refuses what the enclave would, as a 400
_INFER = Kind(dict, error=InvocationError, fields=dict(model_id=ID, uid=ID, enc_request=SEALED))
_GRANT = Kind(dict, error=InvocationError, fields=dict(model_id=ID, uid=ID))
_KS_HANDSHAKE = Kind(dict, error=InvocationError, fields=dict(offer=Kind(dict)))
_KS_CALL = Kind(dict, error=InvocationError, fields=dict(
    channel_id=Kind(int, least=1), ciphertext=Kind(bytes)))

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
        #: guards ``_entries`` and ``_counters``: connection threads and
        #: the sweeper decide and change an entry in one step under it
        self._lock = threading.Lock()
        #: submitted requests by ``req_id``
        self._entries: Dict[str, _Entry] = {}
        self._req_ids = itertools.count(1)
        self._counters: Dict[str, int] = {}
        self._httpd = HttpServer(
            self._handle,
            host=self.config.host,
            port=self.config.port,
            max_body_bytes=self.config.max_body_bytes,
            error_mapper=self._map_error,
        )
        self._closing = threading.Event()
        self._sweeper: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        return self._httpd.address

    @property
    def base_url(self) -> str:
        host, port = self._httpd.address
        return f"http://{host}:{port}"

    def start_background(self) -> Tuple[str, int]:
        """Bind, then serve on background threads (tests, CLI, benchmark)."""
        address = self._httpd.start()
        self._sweeper = threading.Thread(
            target=self._sweep_loop, name=f"{THREAD_PREFIX}sweep", daemon=True
        )
        self._sweeper.start()
        return address

    def close(self) -> None:
        """Stop serving, join every service thread and expire every result
        still held (gateway teardown stays the owner's)."""
        self._closing.set()
        # a connection thread held in a long-poll ends at the poll's cap
        self._httpd.close(timeout_s=self.config.poll_wait_cap_s + 5.0)
        if self._sweeper is not None:
            self._sweeper.join(timeout=10)
            self._sweeper = None
        self._expire(lambda entry: True)

    def __enter__(self) -> "InferenceService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- routing ------------------------------------------------------------------

    def _handle(self, request: HttpRequest) -> HttpResponse:
        _RESPONSE_CODEC.set(self._negotiate_codec(request))
        method, path = request.method, request.path
        if path == "/v1/healthz" and method == "GET":
            return self._healthz()
        if path == "/v1/stats" and method == "GET":
            return self._stats()
        if path == "/v1/meta" and method == "GET":
            return self._meta()
        if path == "/v1/ks/handshake" and method == "POST":
            return self._ks_handshake(request)
        if path == "/v1/ks/call" and method == "POST":
            return self._ks_call(request)
        if path == "/v1/grants" and method == "POST":
            return self._grants(request)
        if path == "/v1/infer" and method == "POST":
            return self._infer(request)
        if path == "/v1/submit" and method == "POST":
            return self._submit(request)
        if path == "/v1/stream" and method == "POST":
            return self._stream(request)
        if path.startswith(_RESULTS_PREFIX):
            req_id = path[len(_RESULTS_PREFIX):]
            if method == "GET":
                return self._results(req_id, request.query)
            if method == "DELETE":
                return self._cancel(req_id)
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
        with self._lock:
            self._counters[route] = self._counters.get(route, 0) + 1

    # -- plain endpoints ----------------------------------------------------------

    def _healthz(self) -> HttpResponse:
        return self._json(200, {
            "ok": True,
            "inflight": self.admission.inflight_total,
            "endpoints": self.gateway.endpoint_count,
        })

    def _stats(self) -> HttpResponse:
        with self._lock:
            entries = list(self._entries.values())
            requests = dict(self._counters)
        pending = sum(
            1 for e in entries if not (e.consumed or e.submission.cancelled())
        )
        payload = {
            "admission": self.admission.stats(),
            "gateway": {
                "in_flight": self.gateway.in_flight,
                "endpoints": self.gateway.endpoint_count,
            },
            "service": {
                "requests": requests,
                "results_pending": pending,
                "results_retained": len(entries),
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
                "feed_window": submit_window(batch, tcs),
            }
        return self._json(200, {
            "service": self.tracer.service,
            "models": models,
            "keyservice_measurement": self.env.keyservice.measurement.value,
        })

    # -- keyservice proxy ---------------------------------------------------------

    def _ks_handshake(self, request: HttpRequest) -> HttpResponse:
        self._count("ks_handshake")
        msg = self._decode(request, _KS_HANDSHAKE)
        return self._json(200, self.env.keyservice.handshake(msg["offer"]))

    def _ks_call(self, request: HttpRequest) -> HttpResponse:
        self._count("ks_call")
        msg = self._decode(request, _KS_CALL)
        reply = self.env.keyservice.request(msg["channel_id"], msg["ciphertext"])
        return self._json(200, {"reply": reply})

    def _grants(self, request: HttpRequest) -> HttpResponse:
        """Owner-side half of a grant: GRANT_ACCESS for ``uid``.

        The user's own half (ADD_REQ_KEY) runs client-side over the KS
        proxy -- the service never sees a request key.
        """
        self._count("grants")
        msg = self._decode(request, _GRANT)
        handle = self._handle_for(msg["model_id"])
        handle.owner.grant_access(handle.model_id, handle.measurement, msg["uid"])
        return self._json(200, {
            "ok": True, "measurement": handle.measurement.value,
        })

    # -- inference ----------------------------------------------------------------

    def _admitted(
        self,
        route: str,
        request: HttpRequest,
        call: Callable[..., Any],
        finish: Callable[[Any, Callable[[], None], Any], Any],
    ):
        """The one path an inference request takes into the fleet.

        Decode and validate, look the model up, admit (O(1): a shed
        never reaches the gateway), open the ``http:<route>`` root span,
        then run ``call(enc_request, uid, model_id, msg)`` with that span
        attached: the admission-time ``route`` span parents under it,
        and -- the endpoint scheduler captures the ambient span at
        submit time -- so do the worker's ECALL spans.  Whatever
        ``call`` raises releases the slot and is the reply; else
        ``finish(outcome, release, span)`` owns both.
        """
        self._count(route)
        msg = self._decode(request, _INFER)
        model_id, uid = msg["model_id"], msg["uid"]
        self._handle_for(model_id)
        release = self.admission.admit(uid)
        client_span = request.headers.get("x-client-span")
        span = self.tracer.start_span(
            f"http:{route}", parent=None, model_id=model_id, tenant=uid,
            **({"client_span": client_span} if client_span else {}),
        )
        try:
            with self.tracer.attach(span):
                outcome = call(msg["enc_request"], uid, model_id, msg)
        except Exception as exc:
            release()
            self._end_span(span, error=exc)
            return self._json(*to_wire(exc), span=span)
        return finish(outcome, release, span)

    def _infer(self, request: HttpRequest) -> HttpResponse:
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

        return self._admitted("infer", request, dispatch, served)

    def _submit(self, request: HttpRequest) -> HttpResponse:
        def submit(enc_request, uid, model_id, msg):
            return self.gateway.submit(enc_request, uid, model_id)

        def accepted(submission, release, span) -> HttpResponse:
            entry = _Entry(submission, release, time.monotonic(), span)
            with self._lock:
                req_id = f"r-{next(self._req_ids)}"
                self._entries[req_id] = entry
            self._end_span(span, endpoint=submission.endpoint, req_id=req_id)
            return self._json(202, {
                "req_id": req_id, "endpoint": submission.endpoint,
            }, span=span)

        return self._admitted("submit", request, submit, accepted)

    def _stream(self, request: HttpRequest):
        """Open an autoregressive stream; the reply body is chunked.

        Admission failures surface as an ordinary error response; once
        the gateway stream is open the reply commits to ``200`` with a
        chunked body of records (:mod:`repro.service.protocol`): one per
        sealed frame, and -- because a failure *mid-decode* cannot
        change the status line any more -- one final error record the
        client SDK rebuilds the typed exception from.  The connection
        thread iterates the gateway stream and writes each record as one
        chunk; a failed write closes the records, which cancels the
        stream at once so its enclave context is released.
        """

        def open_stream(enc_request, uid, model_id, msg):
            return self.gateway.open_stream(enc_request, uid, model_id)

        def opened(handle, release, span) -> StreamingHttpResponse:
            def records():
                error: Optional[BaseException] = None
                try:
                    yield b""  # primed below: closing runs the cleanup from here on
                    for frame in handle:
                        yield frame_record(frame)
                except BaseException as exc:
                    error = exc
                    if not isinstance(exc, Exception):
                        handle.cancel()  # closed mid-body: the client is gone
                        raise
                finally:
                    release()  # the slot is free before the client sees the end
                    self._end_span(
                        span, error=error, endpoint=handle.endpoint,
                        frames=handle.token_count,
                    )
                if error is not None:
                    yield error_record(error)

            chunks = records()
            next(chunks)
            return StreamingHttpResponse(
                chunks,
                content_type=BINARY_CONTENT_TYPE,
                headers={"x-trace-id": span.trace_id},
            )

        return self._admitted("stream", request, open_stream, opened)

    # -- results ------------------------------------------------------------------

    def _results(self, req_id: str, query: Dict[str, str]) -> HttpResponse:
        self._count("results")
        wait = _seconds(query.get("timeout_s") or 0)
        entry = self._entry(req_id)
        submission = entry.submission
        peek = query.get("peek") in ("1", "true")
        if wait > 0 and not (peek or submission.done() or submission.cancelled()):
            # the long-poll: non-consuming, so it needs no lock
            submission.wait(min(wait, self.config.poll_wait_cap_s))
        with self._lock:
            # decide the reply and consume the entry in one step: racing
            # polls and DELETEs see one outcome, handed out at most once
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

    def _cancel(self, req_id: str) -> HttpResponse:
        self._count("cancel")
        entry = self._entry(req_id)
        with self._lock:  # atomic with a poll's decide-and-consume
            if entry.submission.cancel():
                entry.release()
        return self._json(200, {"cancelled": entry.submission.cancelled()})

    def _entry(self, req_id: str) -> _Entry:
        with self._lock:
            entry = self._entries.get(req_id)
        if entry is None:
            raise StorageError(f"unknown request id {req_id!r}")
        return entry

    def _sweep_loop(self) -> None:
        """Expire terminal/abandoned results so slots cannot leak.

        The same cadence drives the gateway's warm-pool housekeeping
        (janitor retirements) when it is armed.  Runs on its own thread
        until :meth:`close`.
        """
        interval = max(0.5, self.config.result_ttl_s / 4)
        pool = self.gateway.warm_pool
        if pool is not None:
            interval = min(interval, max(0.25, pool.config.keep_alive_s / 4))
        while not self._closing.wait(interval):
            if pool is not None:
                self.gateway.maintain()
            cutoff = time.monotonic() - self.config.result_ttl_s
            self._expire(lambda entry: entry.created < cutoff)

    def _expire(self, due: Callable[[_Entry], bool]) -> None:
        """Drop every entry ``due`` picks and settle what it still holds.

        An entry nobody fetched holds the gateway's in-flight count, the
        router's pending count (which pins its model to the endpoint and
        keeps the endpoint from retiring) and an admission slot.  It is
        cancelled, or -- sealed but never fetched, so a refused cancel
        settles nothing -- its outcome is consumed; then its slot is
        released.
        """
        with self._lock:
            for req_id, entry in list(self._entries.items()):
                if not due(entry):
                    continue
                del self._entries[req_id]
                if not entry.submission.cancel():
                    try:
                        entry.submission.result(timeout_s=0)
                    except Exception:  # noqa: BLE001 - nobody is left to tell
                        pass
                entry.release()

    # -- helpers ------------------------------------------------------------------

    def _handle_for(self, model_id: str) -> ModelHandle:
        handle = self.handles.get(model_id)
        if handle is None:
            raise StorageError(f"model {model_id!r} is not served here")
        return handle

    def _decode(self, request: HttpRequest, body: Kind) -> dict:
        """Decode and validate one body -- the only door for outside input.

        ``body`` is the route's record of required fields (a ``bool`` is
        no ``int`` here); ``timeout_s`` is optional.  A refusal is a 400.
        """
        try:
            msg = wire.loads(request.body)
        except wire.WireError as exc:
            raise InvocationError(f"malformed body: {exc}") from exc
        body.check(msg, "malformed body")
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
    host, port = service.start_background()
    print(f"serving on http://{host}:{port}  (Ctrl-C to stop)")
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()


__all__ = ["InferenceService", "serve"]
