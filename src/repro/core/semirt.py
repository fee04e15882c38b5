"""SeMIRT: the secure model-inference enclave runtime (Algorithm 2).

The enclave exposes the Figure 5 surface -- ``EC_MODEL_INF``,
``EC_GET_OUTPUT``, ``EC_CLEAR_EXEC_CTX``, plus the batched
``EC_MODEL_INF_BATCH`` -- and two OCALLs (``OC_LOAD_MODEL``,
``OC_FREE_LOADED``) plus the quote/network OCALLs every enclave needs.
``EC_MODEL_INF`` returns a *ticket*; the host fetches and releases that
request's output by ticket, so requests running concurrently on
different TCSs never share an output slot.  ``EC_MODEL_INF_BATCH``
serves several requests for one ``<uid, M_oid>`` pair in a single call
-- the same-pair security rule is enforced *inside* the enclave (every
payload must authenticate under that user's request key), each request
still getting its own ticketed execution context.
Cached state drives the cold/warm/hot invocation paths:

- the decrypted **model** lives in the shared enclave heap (one per
  enclave, first thread decrypts under ``_model_lock``, later threads
  reuse);
- ``<uid, M_oid>`` **key pairs** are memoised for the *loaded* model
  (Section IV-B generalised: the paper's single-pair cache is the
  ``key_cache_entries=1`` case; a throughput build keeps one entry per
  hot user, each carrying its derived request cipher, so repeat
  requests skip both the KeyService round trip and the AES-GCM context
  rebuild).  Switching models evicts every entry -- a reload can never
  pair a stale key with a new artifact -- and the KeyService
  re-attestation path (restart, ``EC_RESTORE_STATE``, shard failover)
  flushes the whole cache.  ``EC_INVALIDATE_KEYS`` is the push-side
  hook revocation/re-grant uses;
- the **model runtime** is per-thread (thread-local storage, one per
  TCS -- the host binds one scheduler worker per TCS slot);
- per-request **execution contexts** (the sealed outputs) live in a
  bounded ticket table, at most one per TCS.

The untrusted :class:`SemirtHost` drives the enclave through a TCS-slot
scheduler: a bounded worker pool (one worker per ``tcs_count``) fed by
an admission queue with configurable depth.  ``submit()`` returns an
:class:`InferenceFuture` immediately (or raises
:class:`~repro.errors.QueueFull` as backpressure); ``infer()`` is the
blocking composition the serverless action path uses.  With
``SchedulerConfig(batch=BatchPolicy(...))`` the scheduler additionally
runs a **batch accumulator**: the first hot request for a pair becomes
the leader, waits up to ``batch_window_s`` for followers, and executes
the whole batch through one ``EC_MODEL_INF_BATCH`` (``docs/batching.md``).

Execution-restriction settings -- sequential processing, key-cache off,
runtime cleared per request, pinned model -- are *build settings*: they
change the MRENCLAVE, so KeyService can distinguish a strong-isolation
build from a throughput build (Section V).  The expected KeyService
identity ``E_K`` is likewise compiled in (Appendix A).
"""

from __future__ import annotations

import itertools
import queue as queue_module
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batching import BatchPolicy
from repro.core.futures import OutcomeCell
from repro.core.stages import InvocationPlan, SemirtCacheState, Stage, plan_invocation
from repro.core import wire
from repro.core.wire import WireError
from repro.crypto.gcm import AESGCM, SessionCipher
from repro.errors import (
    AccessDenied,
    CryptoError,
    EnclaveError,
    FaultInjected,
    InvocationError,
    ModelError,
    QueueFull,
    RequestCancelled,
    TransportError,
)
from repro.faults.injector import maybe_wire
from repro.mlrt.decoder import DecoderSession, greedy
from repro.mlrt.framework import get_framework
from repro.mlrt.model import Model
from repro.obs.tracer import maybe_span
from repro.sgx.attestation import AttestationService, QuotePolicy
from repro.sgx.enclave import Enclave, EnclaveBuildConfig, EnclaveCode, ecall
from repro.sgx.measurement import EnclaveMeasurement, code_identity_of, measure
from repro.sgx.platform import SgxPlatform
from repro.sgx.ratls import HandshakeOffer, RatlsPeer, SecureChannel, complete_handshake

REQUEST_AAD = b"sesemi-request"
RESPONSE_AAD = b"sesemi-response"
# the streaming surface gets its own AAD pair: a sealed stream request
# can never be replayed into EC_MODEL_INF (and vice versa), and a token
# frame can never masquerade as a one-shot response -- cross-protocol
# confusion fails AEAD authentication (docs/streaming.md)
STREAM_AAD = b"sesemi-stream"
FRAME_AAD = b"sesemi-frame"

#: upper bound on tokens one stream may generate; bounds how long a
#: stream context (and its KV cache) can pin enclave heap
MAX_STREAM_TOKENS = 1024


@dataclass(frozen=True)
class IsolationSettings:
    """Execution-restriction build options (Section V).

    The default is the throughput build the main experiments use; the
    strong-isolation build of Table II flips all of them.
    """

    sequential: bool = False       # single TCS, no concurrent requests
    key_cache: bool = True         # cache the last <uid, M_oid> key pair
    reuse_runtime: bool = True     # keep the model runtime across requests
    clear_context: bool = False    # wipe per-request state after each reply
    pinned_model: Optional[str] = None  # refuse any other model id

    @classmethod
    def strong(cls, pinned_model: Optional[str] = None) -> "IsolationSettings":
        """The strong-isolation configuration measured in Table II."""
        return cls(
            sequential=True,
            key_cache=False,
            reuse_runtime=False,
            clear_context=True,
            pinned_model=pinned_model,
        )

    def as_mapping(self) -> dict:
        """JSON-friendly form folded into the enclave measurement."""
        return {
            "sequential": self.sequential,
            "key_cache": self.key_cache,
            "reuse_runtime": self.reuse_runtime,
            "clear_context": self.clear_context,
            "pinned_model": self.pinned_model,
        }


@dataclass(frozen=True)
class SchedulerConfig:
    """Host-side TCS scheduler knobs (NOT part of the enclave identity).

    ``queue_depth`` bounds the admission queue; a :meth:`SemirtHost.submit`
    beyond it raises :class:`~repro.errors.QueueFull`.  ``paced_service_s``,
    when set, paces every ``EC_MODEL_INF`` cycle to a per-request
    service-time floor: the worker sleeps out the remainder of the floor
    inside the ECALL span.  It models the on-hardware execution time the
    functional twin does not have (cf. ``docs/calibration.md``) -- the
    sleep releases the GIL, so paced requests genuinely overlap across
    TCS slots the way SGX threads do on real cores.  ``None`` (the
    default) leaves requests entirely compute-bound.

    ``paced_busy`` changes *how* the floor is spent: instead of a
    GIL-releasing sleep (the overlap regime above), the worker holds the
    CPU for the remainder -- modelling the **compute-bound** regime
    where the node has fewer cores than TCS threads, which is exactly
    where micro-batching pays (cf. Figure 11a).  ``batch`` arms the
    scheduler's hot-path batch accumulator with a
    :class:`~repro.core.batching.BatchPolicy`; like every field here it
    is host policy, excluded from ``settings()``/MRENCLAVE.
    """

    queue_depth: int = 16
    paced_service_s: Optional[float] = None
    batch: Optional[BatchPolicy] = None
    paced_busy: bool = False
    #: how many <uid, M_oid> key entries the enclave memoises for the
    #: loaded model.  1 reproduces the paper's single-pair cache; the
    #: default keeps one entry per hot user so alternating users stop
    #: paying a KeyService round trip each.  Host *sizing* policy, like
    #: queue_depth -- whether keys may be cached at all stays the
    #: measured IsolationSettings.key_cache bit.
    key_cache_entries: int = 32

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise EnclaveError("the admission queue needs a depth of at least 1")
        if self.key_cache_entries < 1:
            raise EnclaveError("key_cache_entries needs room for at least 1 entry")
        if self.paced_service_s is not None and self.paced_service_s < 0:
            raise EnclaveError("paced_service_s cannot be negative")
        if self.batch is not None and not isinstance(self.batch, BatchPolicy):
            raise EnclaveError("batch must be a repro.core.batching.BatchPolicy")


def default_semirt_config(tcs_count: int = 1,
                          memory_bytes: int = 64 * 1024 * 1024) -> EnclaveBuildConfig:
    """A build config sized for small functional models."""
    return EnclaveBuildConfig(memory_bytes=memory_bytes, tcs_count=tcs_count)


def expected_semirt_measurement(
    framework: str,
    keyservice_measurement: EnclaveMeasurement,
    config: EnclaveBuildConfig,
    isolation: Optional[IsolationSettings] = None,
) -> EnclaveMeasurement:
    """Derive ``E_S`` independently from code + build settings.

    Model owners and users compute this before granting access; the model
    content is *not* part of the identity (Appendix B).
    """
    isolation = isolation if isolation is not None else IsolationSettings()
    build_view = dict(config.as_mapping())
    build_view["settings"] = _semirt_settings(
        framework, keyservice_measurement, isolation
    )
    return measure(code_identity_of(SemirtEnclaveCode), build_view)


def _semirt_settings(
    framework: str,
    keyservice_measurement: EnclaveMeasurement,
    isolation: IsolationSettings,
) -> dict:
    return {
        "runtime": "semirt",
        "framework": framework,
        "keyservice_mrenclave": keyservice_measurement.value,
        "isolation": isolation.as_mapping(),
    }


class _KeyCacheEntry:
    """One memoised ``<uid, M_oid>`` provisioning verdict (trusted heap).

    Holding an entry *is* the cached "KeyService authorised this pair"
    verdict: it carries the two keys plus the request cipher derived
    once (AES key schedule + GHASH tables), so a hot request reuses the
    whole sealed context instead of rebuilding it per ECALL.
    """

    __slots__ = ("uid", "model_id", "model_key", "request_key", "cipher")

    def __init__(
        self, uid: str, model_id: str, model_key: bytes, request_key: bytes
    ) -> None:
        self.uid = uid
        self.model_id = model_id
        self.model_key = model_key
        self.request_key = request_key
        # derived in-enclave, deliberately NOT through the process-wide
        # AESGCM.derive cache: enclave key state never leaves the enclave
        self.cipher = SessionCipher(AESGCM(request_key))


class _StreamContext:
    """One live autoregressive stream's trusted state (enclave heap).

    The per-ticket streaming sibling of the execution-context table:
    where ``_contexts`` holds one sealed output per one-shot request, a
    stream context holds the :class:`~repro.mlrt.decoder.DecoderSession`
    whose KV caches *are* the stream's enclave-heap footprint, plus the
    user's request cipher captured when the stream authenticated and the
    remaining generation budget.  Released when the budget is spent, by
    ``EC_STREAM_CLOSE`` (the cancel path), or with the enclave itself.
    """

    __slots__ = (
        "uid", "model_id", "decoder", "cipher", "last_token", "index", "remaining"
    )

    def __init__(
        self,
        uid: str,
        model_id: str,
        decoder: DecoderSession,
        cipher: SessionCipher,
        last_token: int,
        remaining: int,
    ) -> None:
        self.uid = uid
        self.model_id = model_id
        self.decoder = decoder
        self.cipher = cipher
        self.last_token = last_token
        #: frames sealed so far (the next frame's index)
        self.index = 0
        #: tokens still allowed after the ones already emitted
        self.remaining = remaining


class SemirtEnclaveCode(EnclaveCode):
    """The trusted half of SeMIRT."""

    def __init__(
        self,
        framework: str,
        attestation: AttestationService,
        keyservice_measurement: EnclaveMeasurement,
        isolation: Optional[IsolationSettings] = None,
        tracer=None,
        key_cache_entries: int = 32,
    ) -> None:
        super().__init__()
        isolation = isolation if isolation is not None else IsolationSettings()
        self._framework = get_framework(framework)
        self._framework_name = framework
        self._attestation = attestation
        self._expected_keyservice = keyservice_measurement
        self._isolation = isolation
        # observability only -- deliberately NOT part of settings(), so
        # tracing never perturbs the enclave measurement E_S
        self.tracer = tracer
        # global (heap) state shared by all TCS threads.  The model is
        # switched under _model_lock (first thread decrypts, later
        # threads reuse); the key-pair memo has its own lock; the
        # KeyService channel is serialised by _ks_lock because the
        # SecureChannel nonce counters are not thread-safe.
        self._model: Optional[Model] = None
        self._model_id: Optional[str] = None
        # the <uid, M_oid> key memo: every entry belongs to the loaded
        # model and carries the keys plus the derived request cipher
        # (the memoised validation verdict -- holding an entry IS the
        # cached "KeyService said yes" for that pair)
        self._kc: "OrderedDict[Tuple[str, str], _KeyCacheEntry]" = OrderedDict()
        self._kc_capacity = max(1, int(key_cache_entries))
        self._ks_session: Optional[Tuple[int, SecureChannel]] = None
        self._model_lock = threading.Lock()
        self._kc_lock = threading.Lock()
        self._ks_lock = threading.Lock()
        # per-request execution contexts: ticket -> sealed output.  The
        # table is bounded by the TCS count -- one pending context per
        # slot -- so a host that never fetches outputs cannot grow the
        # enclave heap.
        self._contexts: Dict[int, bytes] = {}
        self._context_lock = threading.Lock()
        self._tickets = itertools.count(1)
        # thread-local (TCS) state: the model runtime buffers
        self._tls = threading.local()
        #: observability for tests/benchmarks: the last plan taken
        self.last_plan: Optional[InvocationPlan] = None
        #: observability for tests/benchmarks: one (uid, model_id, size)
        #: row per EC_MODEL_INF_BATCH served
        self.batch_log: List[Tuple[str, str, int]] = []
        # per-ticket stream contexts (the streaming sibling of
        # _contexts): each holds a decoder whose KV caches live in the
        # enclave heap until the stream drains or is closed.  Bounded by
        # the TCS count like the execution-context table.
        self._streams: Dict[int, _StreamContext] = {}
        self._stream_lock = threading.Lock()
        #: observability for tests/benchmarks: one (uid, model_id, size)
        #: row per EC_STREAM_STEP served
        self.stream_log: List[Tuple[str, str, int]] = []

    def settings(self) -> dict:
        """Build settings covered by MRENCLAVE (framework, E_K, isolation)."""
        return _semirt_settings(
            self._framework_name, self._expected_keyservice, self._isolation
        )

    @property
    def pending_outputs(self) -> int:
        """Execution contexts awaiting ``EC_GET_OUTPUT``/``EC_CLEAR_EXEC_CTX``."""
        with self._context_lock:
            return len(self._contexts)

    @property
    def open_streams(self) -> int:
        """Live stream contexts (KV caches pinned in the enclave heap)."""
        with self._stream_lock:
            return len(self._streams)

    # -- ECALLs (Figure 5) -----------------------------------------------------------

    @ecall
    def EC_MODEL_INF(self, enc_request: bytes, uid: str, model_id: str) -> int:
        """Run inference on ``uid``'s encrypted input with ``model_id``.

        Implements Algorithm 2: key lookup/fetch, model switch under the
        lock, per-thread runtime init, decrypt-execute-encrypt.  Returns
        the *ticket* identifying this request's execution context; the
        sealed output is fetched with ``EC_GET_OUTPUT(ticket)`` and
        released with ``EC_CLEAR_EXEC_CTX(ticket)``.
        """
        isolation = self._isolation
        self._check_pinned(model_id)
        with self._context_lock:
            if len(self._contexts) >= self.enclave.config.tcs_count:
                raise EnclaveError(
                    "all execution contexts are in use; fetch or clear "
                    "pending outputs before submitting more requests"
                )
        self.last_plan = plan_invocation(
            self._observable_state(uid, model_id),
            model_id,
            uid,
            key_cache_enabled=isolation.key_cache,
            reuse_runtime=isolation.reuse_runtime,
        )
        output, runtime = self._serve_guarded(
            uid,
            model_id,
            lambda entry, runtime, model: self._serve_payload(
                runtime, model, entry.cipher, enc_request, model_id
            ),
        )
        with self._context_lock:
            ticket = next(self._tickets)
            self._contexts[ticket] = output
        self._maybe_clear_runtime(runtime)
        return ticket

    @ecall
    def EC_MODEL_INF_BATCH(
        self, enc_requests: Sequence[bytes], uid: str, model_id: str
    ) -> List[int]:
        """Run inference on several of ``uid``'s requests in one ECALL.

        The batched flavour of ``EC_MODEL_INF``: one enclave transition,
        one key lookup, one runtime -- then every request is decrypted,
        executed, and sealed into its *own* ticketed execution context.
        Returns the tickets in request order.

        The batching **security rule** is enforced here, not on the
        untrusted host: the whole batch names a single ``<uid, M_oid>``
        pair and every payload must authenticate under that user's
        request key ``K_R`` -- a ciphertext belonging to any other user
        or model fails AEAD authentication and the batch is refused as
        a unit (no context is created).  Sequential builds promise that
        requests never co-execute, so they refuse any batch larger than
        one.
        """
        isolation = self._isolation
        size = len(enc_requests)
        if size == 0:
            raise InvocationError("refusing an empty batch")
        if isolation.sequential and size > 1:
            raise InvocationError(
                "sequential builds never co-execute requests; batch refused"
            )
        self._check_pinned(model_id)
        capacity = self.enclave.config.tcs_count
        with self._context_lock:
            if len(self._contexts) + size > capacity:
                raise EnclaveError(
                    f"batch of {size} exceeds the free execution contexts "
                    f"({capacity - len(self._contexts)} of {capacity}); fetch or "
                    "clear pending outputs before submitting more requests"
                )
        self.last_plan = plan_invocation(
            self._observable_state(uid, model_id),
            model_id,
            uid,
            key_cache_enabled=isolation.key_cache,
            reuse_runtime=isolation.reuse_runtime,
        )
        # all-or-nothing: a payload that fails authentication aborts the
        # whole batch before any context is committed, so the host's
        # fallback can re-dispatch the members individually
        outputs, runtime = self._serve_guarded(
            uid,
            model_id,
            lambda entry, runtime, model: [
                self._serve_payload(runtime, model, entry.cipher, enc, model_id)
                for enc in enc_requests
            ],
        )
        tickets: List[int] = []
        with self._context_lock:
            if len(self._contexts) + size > capacity:
                raise EnclaveError(
                    "execution contexts were exhausted while the batch executed"
                )
            for output in outputs:
                ticket = next(self._tickets)
                self._contexts[ticket] = output
                tickets.append(ticket)
        self.batch_log.append((uid, model_id, size))
        self._maybe_clear_runtime(runtime)
        return tickets

    @ecall
    def EC_GET_OUTPUT(self, ticket: int) -> bytes:
        """Copy ``ticket``'s encrypted output to the untrusted caller."""
        with self._context_lock:
            output = self._contexts.get(ticket)
        if output is None:
            raise EnclaveError(f"no output pending for ticket {ticket!r}")
        return output

    @ecall
    def EC_CLEAR_EXEC_CTX(self, ticket: int) -> None:
        """Release ``ticket``'s execution context (idempotent)."""
        with self._context_lock:
            self._contexts.pop(ticket, None)
        if self._isolation.clear_context:
            self._tls.runtime = None
            self._tls.runtime_model = None

    @ecall
    def EC_MODEL_INF_STREAM(
        self, enc_request: bytes, uid: str, model_id: str
    ) -> Tuple[int, bytes, bool]:
        """Open an autoregressive stream; returns ``(ticket, frame, done)``.

        The streaming flavour of ``EC_MODEL_INF``: the sealed prompt
        must authenticate under ``uid``'s request key ``K_R`` (the same
        per-user rule as ``EC_MODEL_INF_BATCH``), the whole prompt is
        prefilled, and the first token comes back immediately as a
        sealed frame -- time-to-first-token is one enclave transition.
        The decoder's KV caches stay in the enclave heap as a per-ticket
        stream context beside the execution-context table; neither
        prompt, KV state nor tokens ever cross the boundary in
        plaintext.  ``done`` is true when the generation budget was one
        token (no context is kept).  Later tokens come from
        ``EC_STREAM_STEP``; ``EC_STREAM_CLOSE`` abandons the stream.
        """
        isolation = self._isolation
        self._check_pinned(model_id)
        capacity = self.enclave.config.tcs_count
        with self._stream_lock:
            if len(self._streams) >= capacity:
                raise EnclaveError(
                    f"all {capacity} stream contexts are in use; drain or "
                    "close running streams before opening more"
                )
        self.last_plan = plan_invocation(
            self._observable_state(uid, model_id),
            model_id,
            uid,
            key_cache_enabled=isolation.key_cache,
            reuse_runtime=isolation.reuse_runtime,
        )
        ctx = self._stream_guarded(
            uid,
            model_id,
            lambda entry, model: self._open_stream(entry, model, enc_request, model_id),
        )
        frame = self._seal_frame(ctx)
        done = ctx.remaining == 0
        with self._stream_lock:
            ticket = next(self._tickets)
            if not done:
                if len(self._streams) >= capacity:
                    raise EnclaveError(
                        "stream contexts were exhausted while the prompt prefetched"
                    )
                self._streams[ticket] = ctx
        return ticket, frame, done

    @ecall
    def EC_STREAM_STEP(self, tickets: Sequence[int]) -> List[Tuple[bytes, bool]]:
        """Advance several streams one decode step in a single transition.

        The continuous-batching core: the host's group leader names the
        tickets of every live member and each decoder advances one
        token, so one enclave transition (and one service-time floor)
        amortises across the group.  The batching **security rule**
        matches ``EC_MODEL_INF_BATCH``: every ticket must belong to a
        single ``<uid, M_oid>`` pair (each stream already authenticated
        under that user's ``K_R`` at open time), the mix is refused as a
        unit, and sequential builds refuse co-stepping more than one
        stream.  Returns one ``(sealed_frame, done)`` per ticket in
        order; a drained stream's context -- KV cache included -- is
        released before returning.
        """
        if not tickets:
            raise InvocationError("refusing an empty stream step")
        if self._isolation.sequential and len(tickets) > 1:
            raise InvocationError(
                "sequential builds never co-execute requests; stream step refused"
            )
        with self._stream_lock:
            contexts: List[_StreamContext] = []
            for ticket in tickets:
                ctx = self._streams.get(ticket)
                if ctx is None:
                    raise EnclaveError(f"no stream open for ticket {ticket!r}")
                contexts.append(ctx)
            pairs = {(ctx.uid, ctx.model_id) for ctx in contexts}
            if len(pairs) > 1:
                raise InvocationError(
                    "a stream step must name a single <uid, model_id> pair; "
                    "step refused"
                )
        results: List[Tuple[bytes, bool]] = []
        for ticket, ctx in zip(tickets, contexts):
            with self._stage_span(
                Stage.MODEL_INFERENCE, model_id=ctx.model_id, component="mlrt"
            ):
                ctx.last_token = greedy(ctx.decoder.step(ctx.last_token))
            ctx.remaining -= 1
            frame = self._seal_frame(ctx)
            done = ctx.remaining == 0
            if done:
                with self._stream_lock:
                    self._streams.pop(ticket, None)
            results.append((frame, done))
        first = contexts[0]
        self.stream_log.append((first.uid, first.model_id, len(contexts)))
        return results

    @ecall
    def EC_STREAM_CLOSE(self, ticket: int) -> None:
        """Release ``ticket``'s stream context and KV cache (idempotent).

        The streaming sibling of ``EC_CLEAR_EXEC_CTX``: the host calls
        it when a stream is cancelled so an abandoned decode never pins
        enclave heap.
        """
        with self._stream_lock:
            self._streams.pop(ticket, None)

    @ecall
    def EC_INVALIDATE_KEYS(
        self, uid: Optional[str] = None, model_id: Optional[str] = None
    ) -> int:
        """Drop memoised key entries (the revocation/re-grant push hook).

        An extension beyond the Figure 5 surface, like
        ``EC_MODEL_INF_BATCH``: the untrusted host relays an owner's
        revocation or a user's re-grant so the enclave forgets the
        matching cached provisioning verdicts immediately instead of
        waiting for the stale entries to fail authentication.  ``None``
        matches everything.  Returns how many entries were dropped.
        Dropping is always safe -- the next request refetches and
        KeyService re-evaluates the grant (Algorithm 1).
        """
        with self._kc_lock:
            victims = [
                pair
                for pair in self._kc
                if (uid is None or pair[0] == uid)
                and (model_id is None or pair[1] == model_id)
            ]
            for pair in victims:
                del self._kc[pair]
        return len(victims)

    # -- internals (trusted) -------------------------------------------------------------

    def _check_pinned(self, model_id: str) -> None:
        isolation = self._isolation
        if isolation.pinned_model is not None and model_id != isolation.pinned_model:
            raise InvocationError(
                f"this enclave build is pinned to model {isolation.pinned_model!r}"
            )

    def _obtain_keys(self, uid: str, model_id: str) -> Tuple["_KeyCacheEntry", bool]:
        """Algorithm 2 lines 6-10: keys from the memo or from KeyService.

        Returns ``(entry, from_cache)``.  A memo hit skips the whole
        KeyService round trip *and* the request-cipher derivation; a
        miss provisions, derives, and (when the build's key_cache bit
        allows caching at all) memoises the entry, LRU-bounded by
        ``key_cache_entries``.
        """
        isolation = self._isolation
        pair = (uid, model_id)
        if isolation.key_cache:
            with self._kc_lock:
                entry = self._kc.get(pair)
                if entry is not None:
                    self._kc.move_to_end(pair)
                    return entry, True
        with self._stage_span(Stage.KEY_RETRIEVAL, model_id=model_id):
            model_key, request_key = self._fetch_keys(uid, model_id)
        entry = _KeyCacheEntry(uid, model_id, model_key, request_key)
        if isolation.key_cache:
            with self._kc_lock:
                self._kc[pair] = entry
                self._kc.move_to_end(pair)
                while len(self._kc) > self._kc_capacity:
                    self._kc.popitem(last=False)
        return entry, False

    def _invalidate_pair(self, uid: str, model_id: str) -> None:
        with self._kc_lock:
            self._kc.pop((uid, model_id), None)

    def _serve_guarded(self, uid: str, model_id: str, fn):
        """Obtain keys/model/runtime and run ``fn``, self-healing stale memos.

        When a memoised entry's keys no longer authenticate -- the user
        re-granted a fresh request key, or the owner rotated the model
        key -- the first failure drops the entry and retries exactly
        once with freshly provisioned keys; a failure on fresh keys (a
        genuinely forged request) propagates.  Returns ``(fn result,
        runtime)``.
        """
        entry, from_cache = self._obtain_keys(uid, model_id)
        try:
            model = self._switch_model(model_id, entry.model_key)
            runtime = self._thread_runtime(model, model_id)
            return fn(entry, runtime, model), runtime
        except InvocationError:
            if not from_cache:
                raise
            self._invalidate_pair(uid, model_id)
            entry, _ = self._obtain_keys(uid, model_id)
            model = self._switch_model(model_id, entry.model_key)
            runtime = self._thread_runtime(model, model_id)
            return fn(entry, runtime, model), runtime

    def _stream_guarded(self, uid: str, model_id: str, fn):
        """:meth:`_serve_guarded`'s streaming twin: keys + model, no runtime.

        A stream decodes through a :class:`DecoderSession` rather than a
        per-TCS runtime (its state is per-*stream*, not per-thread), so
        this skips the thread-runtime step while keeping the same
        stale-memo self-healing: one retry with fresh keys when a cached
        entry no longer authenticates.
        """
        entry, from_cache = self._obtain_keys(uid, model_id)
        try:
            model = self._switch_model(model_id, entry.model_key)
            return fn(entry, model)
        except InvocationError:
            if not from_cache:
                raise
            self._invalidate_pair(uid, model_id)
            entry, _ = self._obtain_keys(uid, model_id)
            model = self._switch_model(model_id, entry.model_key)
            return fn(entry, model)

    def _open_stream(
        self,
        entry: _KeyCacheEntry,
        model: Model,
        enc_request: bytes,
        model_id: str,
    ) -> _StreamContext:
        """Authenticate a stream request, prefill, emit the first token."""
        with self._stage_span(Stage.REQUEST_DECRYPT, model_id=model_id):
            try:
                payload = wire.loads(
                    entry.cipher.unseal(
                        enc_request, aad=STREAM_AAD + model_id.encode()
                    )
                )
            except Exception as exc:
                raise InvocationError(
                    "stream request does not authenticate under the user's "
                    "request key"
                ) from exc
        prompt = np.frombuffer(payload["prompt"], dtype=np.float32)
        if prompt.size == 0:
            raise InvocationError("refusing an empty prompt")
        max_new = int(payload["max_new_tokens"])
        if not 1 <= max_new <= MAX_STREAM_TOKENS:
            raise InvocationError(
                f"max_new_tokens must be between 1 and {MAX_STREAM_TOKENS}"
            )
        try:
            decoder = DecoderSession(model)
        except ModelError as exc:
            # a non-streamable model (e.g. the CNN zoo) is a bad request,
            # not an enclave failure
            raise InvocationError(str(exc)) from exc
        with self._stage_span(
            Stage.MODEL_INFERENCE, model_id=model_id, component="mlrt"
        ):
            first = greedy(decoder.prefill(int(t) for t in prompt))
        return _StreamContext(
            entry.uid, model_id, decoder, entry.cipher, first, max_new - 1
        )

    def _seal_frame(self, ctx: _StreamContext) -> bytes:
        """Seal one token frame under the stream's request cipher.

        Frames carry their index and a done marker inside the sealed
        payload, so a host that drops, reorders or replays frames is
        detectable by the client, not just by the enclave.
        """
        with self._stage_span(Stage.RESULT_ENCRYPT, model_id=ctx.model_id):
            frame = ctx.cipher.seal(
                wire.dumps(
                    {
                        "token": ctx.last_token,
                        "index": ctx.index,
                        "done": ctx.remaining == 0,
                    },
                    codec=wire.BINARY,
                ),
                aad=FRAME_AAD + ctx.model_id.encode(),
            )
        ctx.index += 1
        return frame

    def _switch_model(self, model_id: str, model_key: bytes) -> Model:
        """Lines 11-13: switch the shared model if needed.  Double-checked
        under the lock: the first thread decrypts, later threads reuse
        the heap copy without serialising on the decrypt."""
        if self._model_id != model_id:
            with self._model_lock:
                if self._model_id != model_id:
                    self._model = self._model_load(model_id, model_key)
                    self._model_id = model_id
                    # the memo only ever holds pairs for the loaded
                    # model: evicting on switch guarantees a reload can
                    # never pair a stale key with a new artifact (the
                    # key-rotation safety rule)
                    with self._kc_lock:
                        for pair in [
                            p for p in self._kc if p[1] != model_id
                        ]:
                            del self._kc[pair]
        return self._model

    def _thread_runtime(self, model: Model, model_id: str):
        """Lines 14-15: this TCS thread's model runtime."""
        isolation = self._isolation
        runtime = getattr(self._tls, "runtime", None)
        runtime_model = getattr(self._tls, "runtime_model", None)
        if (
            runtime is None
            or runtime_model != model_id
            or not isolation.reuse_runtime
        ):
            with self._stage_span(
                Stage.RUNTIME_INIT, model_id=model_id, component="mlrt"
            ):
                runtime = self._framework.create_runtime(model)
            self._tls.runtime = runtime
            self._tls.runtime_model = model_id
        return runtime

    def _serve_payload(
        self,
        runtime,
        model: Model,
        request_cipher: SessionCipher,
        enc_request: bytes,
        model_id: str,
    ) -> bytes:
        """Lines 16-19: decrypt one input, execute, seal the output."""
        with self._stage_span(Stage.REQUEST_DECRYPT, model_id=model_id):
            try:
                payload = wire.loads(
                    request_cipher.unseal(
                        enc_request, aad=REQUEST_AAD + model_id.encode()
                    )
                )
            except Exception as exc:
                raise InvocationError(
                    "request does not authenticate under the user's request key"
                ) from exc
            x = np.frombuffer(payload["input"], dtype=np.float32).reshape(
                model.input_spec.shape
            )
        with self._stage_span(
            Stage.MODEL_INFERENCE, model_id=model_id, component="mlrt"
        ):
            runtime.execute(x)
            result = runtime.prepare_output()
        with self._stage_span(Stage.RESULT_ENCRYPT, model_id=model_id):
            # the hot-path payload rides the binary framing: the result
            # tensor travels as a raw segment, never hex-doubled
            return request_cipher.seal(
                wire.dumps({"output": result}, codec=wire.BINARY),
                aad=RESPONSE_AAD + model_id.encode(),
            )

    def _maybe_clear_runtime(self, runtime) -> None:
        if self._isolation.clear_context:
            runtime.clear()
            self._tls.runtime = None
            self._tls.runtime_model = None

    def _stage_span(self, stage: Stage, **attributes):
        """A Figure-4 stage span (no-op context when tracing is off)."""
        return maybe_span(
            self.tracer, f"stage:{stage.value}", stage=stage.value, **attributes
        )

    def _observable_state(
        self, uid: Optional[str] = None, model_id: Optional[str] = None
    ) -> SemirtCacheState:
        """Current cache state in the shared planning representation.

        The planning representation models one visible ``<M_oid, uid>``
        pair; with the multi-entry memo the visible pair is the
        *queried* one whenever it is memoised (plans stay exact for
        every hot user), falling back to the most recently used entry.
        """
        runtime_for = getattr(self._tls, "runtime_model", None)
        with self._kc_lock:
            if uid is not None and (uid, model_id) in self._kc:
                key_cache = (model_id, uid)
            elif self._kc:
                last_uid, last_model = next(reversed(self._kc))
                key_cache = (last_model, last_uid)
            else:
                key_cache = None
        return SemirtCacheState(
            enclave_ready=True,  # code running => enclave exists
            loaded_model=self._model_id,
            key_cache=key_cache,
            runtime_for=runtime_for,
        )

    def _model_load(self, model_id: str, model_key: bytes) -> Model:
        """MODEL_LOAD: pull ciphertext via OCALL, decrypt + deserialise inside."""
        with self._stage_span(Stage.MODEL_LOADING, model_id=model_id):
            encrypted = self.ocall("OC_LOAD_MODEL", model_id)
        with self._stage_span(Stage.MODEL_DECRYPT, model_id=model_id):
            try:
                plaintext = AESGCM(model_key).open(encrypted, aad=model_id.encode())
            except Exception as exc:
                raise InvocationError(
                    f"model {model_id!r} failed authentication (tampered or wrong key)"
                ) from exc
            finally:
                self.ocall("OC_FREE_LOADED", model_id)
            return self._framework.load_model(plaintext)

    def _ensure_keyservice_session(self) -> Tuple[int, SecureChannel]:
        """Mutual RA-TLS with KeyService, reused across invocations."""
        if self._ks_session is not None:
            return self._ks_session
        with maybe_span(
            self.tracer, "ratls_handshake", client="semirt", peer="keyservice"
        ):
            return self._establish_keyservice_session()

    def _establish_keyservice_session(self) -> Tuple[int, SecureChannel]:
        """One mutual RA-TLS handshake with KeyService (always fresh)."""
        peer = RatlsPeer(
            "semirt",
            enclave=self.enclave,
            quoter=lambda report: self.ocall("OC_GET_QUOTE", report),
        )
        offer = peer.offer()
        reply = self.ocall("OC_KS_HANDSHAKE", offer.to_wire())
        server_offer = HandshakeOffer.from_wire(reply["server_offer"])
        channel = complete_handshake(
            peer,
            offer,
            server_offer,
            verifier=self._attestation,
            client_requires=QuotePolicy(expected_mrenclave=self._expected_keyservice),
        )
        self._ks_session = (reply["channel_id"], channel)
        return self._ks_session

    def _fetch_keys(self, uid: str, model_id: str) -> Tuple[bytes, bytes]:
        """KEY_PROVISIONING round trip over the attested channel.

        Serialised under ``_ks_lock``: the secure channel's counter
        nonces admit one in-flight operation, so concurrent TCS threads
        that both miss the key cache queue here rather than corrupt the
        channel.  If the cached session is stale -- KeyService restarted,
        so the channel id or keys no longer match -- the session is
        dropped and re-established once with a fresh mutual attestation.
        Only transport-shaped failures trigger that path; protocol
        verdicts (:class:`AccessDenied`) propagate untouched.
        """
        with self._ks_lock:
            try:
                reply = self._provision_over_session(uid, model_id)
            except (CryptoError, EnclaveError, TransportError, WireError) as exc:
                # transport/crypto failure: stale session after a KeyService
                # restart, or a mangled message.  Re-attest and retry exactly
                # once -- a second failure means KeyService is really gone.
                self._ks_session = None
                # the KeyService we re-attest may have restarted from
                # sealed state (EC_SEAL_STATE/EC_RESTORE_STATE) or be a
                # failed-over shard replica: every memoised verdict
                # predates that world, so the memo is flushed wholesale
                with self._kc_lock:
                    self._kc.clear()
                if self.tracer is not None:
                    span = self.tracer.current_span()
                    if span is not None:
                        span.add_event(
                            "keyservice_reattest", error=type(exc).__name__
                        )
                reply = self._provision_over_session(uid, model_id)
        if not reply.get("ok"):
            raise AccessDenied(reply.get("error", "key provisioning refused"))
        return reply["model_key"], reply["request_key"]

    def _provision_over_session(self, uid: str, model_id: str) -> dict:
        channel_id, channel = self._ensure_keyservice_session()
        request = channel.send(
            wire.dumps({"op": "provision", "uid": uid, "model_id": model_id})
        )
        reply_cipher = self.ocall("OC_KS_REQUEST", channel_id, request)
        return wire.loads(channel.recv(reply_cipher))


class _Admitted(OutcomeCell):
    """The outcome cell plus what the scheduler knows about one request."""

    def __init__(self, enc_request: bytes, uid: str, model_id: str) -> None:
        super().__init__()
        self.uid = uid
        self.model_id = model_id
        self._enc_request = enc_request
        #: host-assigned monotonic id for observability (span attributes,
        #: service-tier request ids) -- **not** a result handle
        self.ticket: Optional[int] = None
        #: ambient span at submit time; the worker re-parents under it
        self._parent = None
        #: the TCS slot that served this request (set by the worker)
        self.tcs_slot: Optional[int] = None
        #: seconds spent in the admission queue (set by the worker)
        self.queue_wait: Optional[float] = None


class InferenceFuture(_Admitted):
    """A submitted request's handle: resolves to the sealed output.

    Returned immediately by :meth:`SemirtHost.submit`.  It *is* the
    :class:`~repro.core.futures.OutcomeCell` (``result`` / ``done`` /
    ``wait`` / ``cancel`` / ``cancelled``) plus the request's metadata:
    :meth:`result` blocks until the TCS scheduler has served the request
    (or failed it, in which case the worker's exception re-raises).

    :meth:`cancel` asks the scheduler to drop the request.  A request
    cancelled before its output was delivered resolves to
    :class:`~repro.errors.RequestCancelled`, and the scheduler releases
    its enclave execution context (``EC_CLEAR_EXEC_CTX``) before the
    error surfaces -- a cancelled request never leaks a context slot.
    """

    def _what(self) -> str:
        return f"request for model {self.model_id!r}"


class InferenceStream(_Admitted):
    """A live autoregressive stream: sealed token frames as they decode.

    Returned immediately by :meth:`SemirtHost.open_stream`.  The same
    :class:`~repro.core.futures.OutcomeCell` as :class:`InferenceFuture`,
    used as a stream: iterating yields sealed frames in order as the
    decode loop pushes them (the consumer decrypts each with
    :meth:`~repro.core.client.UserClient.decrypt_frame`) and
    :meth:`result` blocks for the complete frame sequence -- the
    one-shot view of a streaming request.

    :meth:`cancel` stops generation between decode steps: the group
    leader closes the enclave stream context (``EC_STREAM_CLOSE``
    releases the KV cache) before :class:`~repro.errors.RequestCancelled`
    surfaces to iterators and waiters.

    ``ttft_s`` and ``tokens_per_s`` are measured host-side from frame
    arrival times -- the observability the streaming benchmark reports.
    """

    def _what(self) -> str:
        return f"stream for model {self.model_id!r}"

    def result(self, timeout_s: Optional[float] = None) -> List[bytes]:
        """Block for the full sealed-frame sequence; re-raise any failure."""
        super().result(timeout_s)
        return list(self._items)

    def __iter__(self):
        """Yield sealed frames in decode order, blocking between steps."""
        return self.items()

    @property
    def token_count(self) -> int:
        """Frames delivered so far (grows while the stream decodes)."""
        return len(self._items)

    @property
    def ttft_s(self) -> Optional[float]:
        """Seconds from submission to the first frame (None before it)."""
        first = self._first_at
        return None if first is None else first - self.created_at

    @property
    def tokens_per_s(self) -> Optional[float]:
        """Decode throughput over the frames delivered so far."""
        with self._cv:
            count, last = len(self._items), self._last_at
        if last is None or last <= self.created_at:
            return None
        return count / (last - self.created_at)


class _FormingBatch:
    """One accumulating hot-path batch: the leader plus joined followers.

    Host-side bookkeeping only -- the enclave re-checks the same-pair
    rule on every ``EC_MODEL_INF_BATCH`` regardless of what the host
    accumulated (each payload must authenticate under *that* user's
    request key).
    """

    def __init__(self, leader: InferenceFuture) -> None:
        self.uid = leader.uid
        self.model_id = leader.model_id
        self.members: List[InferenceFuture] = [leader]
        self.closed = False


class _StreamGroup:
    """One running continuous batch of streams (host bookkeeping only).

    Unlike :class:`_FormingBatch` -- which collects, closes, executes
    once -- a stream group stays open while it decodes: new streams land
    in ``joiners`` and the leader absorbs them *between* decode steps,
    and a drained or cancelled member leaves without stopping the rest.
    The enclave re-checks the same-pair rule on every ``EC_STREAM_STEP``
    regardless of what the host grouped.
    """

    def __init__(self, leader: InferenceStream) -> None:
        self.uid = leader.uid
        self.model_id = leader.model_id
        #: streams waiting for the leader to open them in-enclave
        self.joiners: List[InferenceStream] = [leader]
        #: ``(enclave ticket, stream)`` pairs currently decoding
        self.members: List[Tuple[int, InferenceStream]] = []
        self.closed = False


#: queue sentinel telling a scheduler worker to exit
_SHUTDOWN = object()


class SemirtHost:
    """Untrusted host side of a SeMIRT instance.

    Owns the enclave, wires the OCALLs (model download, quote generation,
    KeyService networking), and exposes the action interface a serverless
    request hits.  Everything it relays is ciphertext.

    Requests are served by the **TCS-slot scheduler**: one worker thread
    per TCS, fed from a bounded admission queue.  :meth:`submit` and
    :meth:`open_stream` are the asynchronous entry points (how
    ``infer_many`` keeps a multi-TCS enclave full); :meth:`infer` is the
    blocking composition.
    """

    def __init__(
        self,
        platform: SgxPlatform,
        storage,
        keyservice_host,
        framework: str,
        attestation: AttestationService,
        *,
        config: Optional[EnclaveBuildConfig] = None,
        isolation: Optional[IsolationSettings] = None,
        scheduler: Optional[SchedulerConfig] = None,
        tracer=None,
        injector=None,
    ) -> None:
        isolation = isolation if isolation is not None else IsolationSettings()
        if isolation.sequential:
            config = config or default_semirt_config(tcs_count=1)
            if config.tcs_count != 1:
                raise EnclaveError("sequential isolation requires tcs_count == 1")
        config = config or default_semirt_config()
        self.platform = platform
        self.storage = storage
        self.tracer = tracer
        self.scheduler = scheduler or SchedulerConfig()
        self._keyservice = keyservice_host
        #: optional repro.faults.FaultInjector; wire sites wrap the
        #: KeyService OCALLs, the crash site fires per submitted request
        self._injector = injector
        code = SemirtEnclaveCode(
            framework=framework,
            attestation=attestation,
            keyservice_measurement=keyservice_host.measurement,
            isolation=isolation,
            tracer=tracer,
            key_cache_entries=self.scheduler.key_cache_entries,
        )
        with maybe_span(
            tracer,
            f"stage:{Stage.ENCLAVE_INIT.value}",
            stage=Stage.ENCLAVE_INIT.value,
            framework=framework,
        ):
            self.enclave: Enclave = platform.create_enclave(code, config)
        self.code = code
        self._loaded_blobs: dict = {}
        self.enclave.register_ocall("OC_GET_QUOTE", platform.quote)
        self.enclave.register_ocall("OC_LOAD_MODEL", self._oc_load_model)
        self.enclave.register_ocall("OC_FREE_LOADED", self._oc_free_loaded)
        self.enclave.register_ocall("OC_KS_HANDSHAKE", self._oc_ks_handshake)
        self.enclave.register_ocall("OC_KS_REQUEST", self._oc_ks_request)
        # the TCS-slot scheduler: workers start lazily on first submit
        self._queue: "queue_module.Queue" = queue_module.Queue(
            maxsize=self.scheduler.queue_depth
        )
        self._workers: List[threading.Thread] = []
        self._workers_lock = threading.Lock()
        # the hot-path batch accumulator (armed by SchedulerConfig.batch)
        self._isolation = isolation
        if self.scheduler.batch is not None and isolation.sequential:
            raise EnclaveError(
                "sequential isolation never co-executes requests; "
                "SchedulerConfig.batch cannot be combined with it"
            )
        self._batch_policy: Optional[BatchPolicy] = (
            self.scheduler.batch.clamped(self.enclave.config.tcs_count)
            if self.scheduler.batch is not None
            else None
        )
        self._batch_cv = threading.Condition()
        self._forming: Optional[_FormingBatch] = None
        #: the running continuous batch of streams (one per host; guarded
        #: by _batch_cv like the forming batch)
        self._stream_group: Optional[_StreamGroup] = None
        #: enclave execution contexts reserved by in-flight serves; a
        #: batch holds several contexts with one worker thread, so the
        #: host must account for them across workers (the enclave's own
        #: capacity check remains the backstop)
        self._contexts_in_flight = 0
        #: last <uid, model_id> pair served to completion -- the host's
        #: hot-path hint for when leading a batch is worth the window
        self._hot_pair: Optional[Tuple[str, str]] = None
        # observability ids stamped onto futures (span attributes only)
        self._ticket_ids = itertools.count(1)

    @property
    def measurement(self) -> EnclaveMeasurement:
        return self.enclave.measurement

    @property
    def batch_policy(self) -> Optional[BatchPolicy]:
        """The armed (TCS-clamped) batch policy, or ``None``.

        The public view of ``SchedulerConfig.batch`` after clamping:
        the gateway's batch-affinity hint and
        :meth:`UserSession.infer_many`'s window derivation both read it,
        so host policy flows outward from one place.
        """
        return self._batch_policy

    def _oc_load_model(self, model_id: str) -> bytes:
        blob = self.storage.get(f"models/{model_id}")
        self._loaded_blobs[model_id] = blob
        return blob

    def _oc_free_loaded(self, model_id: str) -> None:
        self._loaded_blobs.pop(model_id, None)

    def _oc_ks_handshake(self, offer_wire: dict) -> dict:
        """Relay a handshake offer to KeyService across a faulty link.

        The offer crosses the wire in encoded form so drop/corrupt faults
        apply to real bytes; a corrupted offer fails to decode (or fails
        attestation), which the enclave's re-attestation path absorbs.
        """
        raw = maybe_wire(self._injector, "semirt->keyservice", wire.dumps(offer_wire))
        return self._keyservice.handshake(wire.loads(raw))

    def _oc_ks_request(self, channel_id: int, ciphertext: bytes) -> bytes:
        """Relay one encrypted KeyService operation across faulty links."""
        ciphertext = maybe_wire(self._injector, "semirt->keyservice", ciphertext)
        reply = self._keyservice.request(channel_id, ciphertext)
        return maybe_wire(self._injector, "keyservice->semirt", reply)

    # -- the TCS-slot scheduler -----------------------------------------------------

    def _ensure_workers(self) -> None:
        with self._workers_lock:
            if self._workers:
                return
            for slot in range(self.enclave.config.tcs_count):
                worker = threading.Thread(
                    target=self._worker_loop,
                    args=(slot,),
                    name=f"semirt-{self.enclave.enclave_id}-tcs{slot}",
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)

    def _worker_loop(self, slot: int) -> None:
        """One scheduler worker, bound to TCS slot ``slot`` for its lifetime."""
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            future = item
            future.tcs_slot = slot
            future.queue_wait = time.monotonic() - future.created_at
            if future.cancel_requested():
                # never reached the enclave: no context to clear
                future.set_cancelled()
                continue
            if isinstance(future, InferenceStream):
                self._handle_stream(future, slot)
                continue
            if self._batch_policy is not None and self._maybe_batch(future, slot):
                continue
            self._serve_one(future, slot)

    def _serve_one(self, future: InferenceFuture, slot: int) -> None:
        """Serve one request on the single-request path, resolving its future."""
        try:
            output = self._serve(future, slot)
        except BaseException as exc:  # noqa: BLE001 - relayed to the waiter
            future.set_error(exc)
        else:
            future.set_result(output)

    # -- the batch accumulator (armed by SchedulerConfig.batch) --------------------

    def _maybe_batch(self, future: InferenceFuture, slot: int) -> bool:
        """Route one request through the batch plane when it is batchable.

        Returns ``True`` when the request was handled here (joined a
        forming batch, whose leader resolves it; or led one itself) and
        ``False`` when the caller should take the single-request path --
        which is every request whose ``<uid, model_id>`` pair is not the
        host's current hot pair.  The hint can be stale; correctness
        never depends on it, only the batching win does.
        """
        policy = self._batch_policy
        pair = (future.uid, future.model_id)
        with self._batch_cv:
            forming = self._forming
            if (
                forming is not None
                and not forming.closed
                and (forming.uid, forming.model_id) == pair
                and len(forming.members) < policy.max_batch
            ):
                forming.members.append(future)
                if len(forming.members) >= policy.max_batch:
                    self._batch_cv.notify_all()  # wake the leader early
                return True
            if policy.max_batch <= 1 or policy.batch_window_s <= 0:
                return False
            if self._hot_pair != pair:
                return False
            # this worker becomes the leader of a fresh forming batch
            # (a full or closed predecessor may still be executing --
            # batches pipeline across workers)
            batch = _FormingBatch(future)
            self._forming = batch
        self._lead_batch(batch, slot)
        return True

    def _lead_batch(self, batch: _FormingBatch, slot: int) -> None:
        """Leader side: collect followers, then execute the whole batch.

        The leader waits up to ``batch_window_s`` for followers, bounded
        by ``max_batch`` *and free execution contexts*: while the
        enclave's context table is full (a previous batch still
        executing), closing the window early would buy nothing, so the
        batch keeps collecting until a slot frees up -- batches pipeline
        and self-clock to the enclave's completion rate.  A hard
        deadline bounds the stretch so a wedged enclave can never hang
        followers (the context reservation's own timeout is the final
        backstop).
        """
        policy = self._batch_policy
        capacity = self.enclave.config.tcs_count
        deadline = time.monotonic() + policy.batch_window_s
        hard_deadline = deadline + 30.0
        with self._batch_cv:
            while len(batch.members) < policy.max_batch:
                now = time.monotonic()
                remaining = deadline - now
                if remaining <= 0:
                    room = self._contexts_in_flight + len(batch.members) <= capacity
                    if room or not self.enclave.alive or now >= hard_deadline:
                        break
                    remaining = hard_deadline - now
                self._batch_cv.wait(remaining)
            batch.closed = True
            if self._forming is batch:
                self._forming = None
            members = list(batch.members)
        live: List[InferenceFuture] = []
        for member in members:
            if member.cancel_requested():
                member.set_cancelled()
            else:
                live.append(member)
        if not live:
            return
        if len(live) == 1:
            # a batch of one takes the ordinary path: same ECALLs,
            # same spans, byte-identical output
            self._serve_one(live[0], slot)
            return
        if self._injector is not None and self._injector.crash_enclave("semirt:batch"):
            # the leader dies mid-batch: followers must never hang
            self.destroy()
            for member in live:
                member.set_error(FaultInjected("semirt enclave crashed mid-batch ECALL"))
            return
        try:
            self._reserve_contexts(len(live))
        except BaseException as exc:  # noqa: BLE001 - relayed to the waiters
            for member in live:
                member.set_error(exc)
            return
        try:
            self._serve_batch(live, slot)
        except BaseException as exc:  # noqa: BLE001 - fall back or fail over
            self._release_contexts(len(live))
            if not self.enclave.alive:
                for member in live:
                    member.set_error(exc)
                return
            # the batch ECALL failed but the enclave survived (e.g. one
            # member's payload refused to authenticate): re-dispatch the
            # members individually so good requests still complete --
            # reservations were released above, so the singles cannot
            # deadlock against our own accounting
            for member in live:
                self._serve_one(member, slot)
        else:
            self._release_contexts(len(live))

    def _serve_batch(self, members: List[InferenceFuture], slot: int) -> None:
        """Drive one ``EC_MODEL_INF_BATCH`` cycle, resolving every member.

        Raises only when the batch ECALL itself fails (no context was
        committed -- the enclave is all-or-nothing); per-member fetch
        failures resolve just that member's future.
        """
        leader = members[0]
        size = len(members)
        floor = self.scheduler.paced_service_s
        attach = (
            self.tracer.attach(leader._parent)
            if self.tracer is not None and leader._parent is not None
            else nullcontext()
        )
        with attach:
            started = time.monotonic()
            started_cpu = time.thread_time()
            with maybe_span(
                self.tracer,
                "ecall:EC_MODEL_INF_BATCH",
                model_id=leader.model_id,
                tcs_slot=slot,
                batch_size=size,
                leader_ticket=leader.ticket,
                amortised_s=(
                    self._batch_policy.amortised_s(floor, size)
                    if floor is not None
                    else None
                ),
                queue_wait=leader.queue_wait,
            ):
                handles = self.enclave.ecall(
                    "EC_MODEL_INF_BATCH",
                    [member._enc_request for member in members],
                    leader.uid,
                    leader.model_id,
                )
                self._pace(started, started_cpu, size=size)
            for member, handle in zip(members, handles):
                member.tcs_slot = slot
                try:
                    if member.cancel_requested():
                        with maybe_span(
                            self.tracer, "ecall:EC_CLEAR_EXEC_CTX", tcs_slot=slot
                        ):
                            self.enclave.ecall("EC_CLEAR_EXEC_CTX", handle)
                        member.set_cancelled()
                        continue
                    with maybe_span(
                        self.tracer, "ecall:EC_GET_OUTPUT", tcs_slot=slot
                    ):
                        output = self.enclave.ecall("EC_GET_OUTPUT", handle)
                    with maybe_span(
                        self.tracer, "ecall:EC_CLEAR_EXEC_CTX", tcs_slot=slot
                    ):
                        self.enclave.ecall("EC_CLEAR_EXEC_CTX", handle)
                except BaseException as exc:  # noqa: BLE001 - this member only
                    member.set_error(exc)
                else:
                    member.set_result(output)
        self._note_served(leader.uid, leader.model_id)

    def _reserve_contexts(self, n: int, timeout_s: float = 30.0) -> None:
        """Block until ``n`` enclave execution contexts can be held.

        The enclave's own capacity check (``EC_MODEL_INF_BATCH`` refuses
        to overflow the context table) stays the backstop; this keeps a
        batch from racing concurrent singles into that error.
        """
        capacity = self.enclave.config.tcs_count
        deadline = time.monotonic() + timeout_s
        with self._batch_cv:
            while self._contexts_in_flight + n > capacity:
                if not self.enclave.alive:
                    raise EnclaveError(f"{self.enclave.enclave_id} is destroyed")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise EnclaveError(
                        f"timed out waiting for {n} free execution contexts"
                    )
                self._batch_cv.wait(remaining)
            self._contexts_in_flight += n

    def _release_contexts(self, n: int) -> None:
        with self._batch_cv:
            self._contexts_in_flight -= n
            self._batch_cv.notify_all()

    def _note_served(self, uid: str, model_id: str) -> None:
        """Remember the pair that just served: the next one may be hot.

        Only meaningful when the build caches keys -- without the key
        cache no request is ever hot, so leading a batch would spend the
        window for nothing.
        """
        if self._batch_policy is None:
            return
        self._hot_pair = (uid, model_id) if self._isolation.key_cache else None

    # -- the continuous-batching stream plane ---------------------------------------

    def _handle_stream(self, stream: InferenceStream, slot: int) -> None:
        """Admit one stream to the continuous-batching plane.

        The first stream's worker becomes the decode **leader** and
        drives the group's step loop until the group is empty; a later
        worker whose stream matches the running group's ``<uid,
        model_id>`` pair hands it over as a *joiner* and returns to the
        pool -- the member is absorbed between decode steps without
        stopping anyone.  Without an armed batch policy every stream
        leads a group of one: the per-request decoding baseline.
        """
        policy = self._batch_policy
        cap = policy.max_batch if policy is not None else 1
        with self._batch_cv:
            group = self._stream_group
            if (
                group is not None
                and not group.closed
                and (group.uid, group.model_id) == (stream.uid, stream.model_id)
                and len(group.members) + len(group.joiners) < cap
            ):
                group.joiners.append(stream)
                self._batch_cv.notify_all()
                return
            group = _StreamGroup(stream)
            if cap > 1:
                self._stream_group = group
        self._lead_stream_group(group, slot)

    def _lead_stream_group(self, group: _StreamGroup, slot: int) -> None:
        """Leader side of continuous batching: open joiners, step members.

        Each iteration absorbs any waiting joiners first (prefill + first
        frame immediately -- time-to-first-token never waits on a
        window), drops cancelled members (``EC_STREAM_CLOSE`` releases
        the enclave KV context before ``RequestCancelled`` surfaces),
        then advances every live stream one token through a single
        ``EC_STREAM_STEP`` paced to the policy's amortised batch cost.
        A leader crash at the ``semirt:batch`` fault site fails every
        member and joiner -- followers never hang on a dead leader.
        """
        try:
            while True:
                with self._batch_cv:
                    joiners, group.joiners = group.joiners, []
                for stream in joiners:
                    self._open_stream_member(group, stream, slot)
                self._drop_cancelled_streams(group, slot)
                if not group.members:
                    with self._batch_cv:
                        if group.joiners:
                            continue  # a joiner raced in: keep leading
                        return
                if self._injector is not None and self._injector.crash_enclave(
                    "semirt:batch"
                ):
                    # the leader dies mid-decode: members must never hang
                    self.destroy()
                    self._fail_stream_group(
                        group,
                        FaultInjected("semirt enclave crashed mid-stream step"),
                    )
                    return
                try:
                    self._step_stream_group(group, slot)
                except BaseException as exc:  # noqa: BLE001 - relayed to members
                    self._fail_stream_group(group, exc)
                    return
        finally:
            with self._batch_cv:
                group.closed = True
                if self._stream_group is group:
                    self._stream_group = None
                stranded, group.joiners = group.joiners, []
            # a joiner that slipped in while we were closing must not
            # hang: hand it back to the scheduler so another worker
            # leads a fresh group for it
            for stream in stranded:
                if not self.enclave.alive:
                    stream.set_error(
                        EnclaveError(f"{self.enclave.enclave_id} is destroyed")
                    )
                    continue
                try:
                    self._queue.put_nowait(stream)
                except queue_module.Full:
                    stream.set_error(
                        QueueFull(
                            "admission queue full while re-queuing a stream joiner"
                        )
                    )

    def _open_stream_member(
        self, group: _StreamGroup, stream: InferenceStream, slot: int
    ) -> None:
        """Open one stream in-enclave (prefill) and push its first frame."""
        stream.tcs_slot = slot
        if stream.cancel_requested():
            # never reached the enclave: no stream context to close
            stream.set_cancelled()
            return
        attach = (
            self.tracer.attach(stream._parent)
            if self.tracer is not None and stream._parent is not None
            else nullcontext()
        )
        with attach:
            started = time.monotonic()
            started_cpu = time.thread_time()
            try:
                with maybe_span(
                    self.tracer,
                    "ecall:EC_MODEL_INF_STREAM",
                    model_id=stream.model_id,
                    tcs_slot=slot,
                    ticket=stream.ticket,
                    queue_wait=stream.queue_wait,
                ):
                    ticket, frame, done = self.enclave.ecall(
                        "EC_MODEL_INF_STREAM",
                        stream._enc_request,
                        stream.uid,
                        stream.model_id,
                    )
                    # prefill costs one full service-time floor (it runs
                    # the whole prompt), whatever the group size
                    self._pace(started, started_cpu)
            except BaseException as exc:  # noqa: BLE001 - this stream only
                stream.set_error(exc)
                return
        stream.push(frame)
        if done:
            stream.set_result()
        else:
            with self._batch_cv:
                group.members.append((ticket, stream))
        self._note_served(stream.uid, stream.model_id)

    def _drop_cancelled_streams(self, group: _StreamGroup, slot: int) -> None:
        """Release cancelled members' enclave contexts, then drop them."""
        live: List[Tuple[int, InferenceStream]] = []
        for ticket, stream in group.members:
            if not stream.cancel_requested():
                live.append((ticket, stream))
                continue
            try:
                with maybe_span(
                    self.tracer, "ecall:EC_STREAM_CLOSE", tcs_slot=slot
                ):
                    self.enclave.ecall("EC_STREAM_CLOSE", ticket)
            except BaseException:  # noqa: BLE001 - enclave died; context gone with it
                pass
            stream.set_cancelled()
        with self._batch_cv:
            group.members = live

    def _step_stream_group(self, group: _StreamGroup, slot: int) -> None:
        """Advance every live member one token via one ``EC_STREAM_STEP``."""
        members = list(group.members)
        tickets = [ticket for ticket, _ in members]
        size = len(members)
        floor = self.scheduler.paced_service_s
        leader = members[0][1]
        attach = (
            self.tracer.attach(leader._parent)
            if self.tracer is not None and leader._parent is not None
            else nullcontext()
        )
        with attach:
            started = time.monotonic()
            started_cpu = time.thread_time()
            with maybe_span(
                self.tracer,
                "ecall:EC_STREAM_STEP",
                model_id=group.model_id,
                tcs_slot=slot,
                batch_size=size,
                amortised_s=(
                    self._batch_policy.amortised_s(floor, size)
                    if floor is not None and self._batch_policy is not None
                    else None
                ),
            ):
                results = self.enclave.ecall("EC_STREAM_STEP", tickets)
                self._pace(started, started_cpu, size=size)
        live: List[Tuple[int, InferenceStream]] = []
        for (ticket, stream), (frame, done) in zip(members, results):
            stream.push(frame)
            if done:
                stream.set_result()
            else:
                live.append((ticket, stream))
        with self._batch_cv:
            group.members = live
        self._note_served(group.uid, group.model_id)

    def _fail_stream_group(
        self, group: _StreamGroup, error: BaseException
    ) -> None:
        """Fail every member and joiner of a group (leader died mid-decode)."""
        with self._batch_cv:
            members, group.members = group.members, []
            joiners, group.joiners = group.joiners, []
        for _, stream in members:
            stream.set_error(error)
        for stream in joiners:
            stream.set_error(error)

    # -- the single-request ECALL cycle ---------------------------------------------

    def _serve(self, future: InferenceFuture, slot: int) -> bytes:
        """Drive the three-ECALL cycle for one request on one TCS slot."""
        reserve = self._batch_policy is not None
        if reserve:
            self._reserve_contexts(1)
        try:
            attach = (
                self.tracer.attach(future._parent)
                if self.tracer is not None and future._parent is not None
                else nullcontext()
            )
            with attach:
                started = time.monotonic()
                started_cpu = time.thread_time()
                with maybe_span(
                    self.tracer,
                    "ecall:EC_MODEL_INF",
                    model_id=future.model_id,
                    tcs_slot=slot,
                    queue_wait=future.queue_wait,
                ):
                    handle = self.enclave.ecall(
                        "EC_MODEL_INF", future._enc_request, future.uid,
                        future.model_id,
                    )
                    self._pace(started, started_cpu)
                if future.cancel_requested():
                    # cancelled after the context was created: clear it
                    # before RequestCancelled surfaces (the cancel() API
                    # contract), never fetching the output
                    with maybe_span(
                        self.tracer, "ecall:EC_CLEAR_EXEC_CTX", tcs_slot=slot
                    ):
                        self.enclave.ecall("EC_CLEAR_EXEC_CTX", handle)
                    raise RequestCancelled(
                        f"request for model {future.model_id!r} was cancelled"
                    )
                with maybe_span(self.tracer, "ecall:EC_GET_OUTPUT", tcs_slot=slot):
                    output = self.enclave.ecall("EC_GET_OUTPUT", handle)
                with maybe_span(self.tracer, "ecall:EC_CLEAR_EXEC_CTX", tcs_slot=slot):
                    self.enclave.ecall("EC_CLEAR_EXEC_CTX", handle)
        finally:
            if reserve:
                self._release_contexts(1)
        self._note_served(future.uid, future.model_id)
        return output

    def _pace(self, started: float, started_cpu: float, size: int = 1) -> None:
        """Spend the remainder of the configured service-time floor.

        A batch of ``size`` is paced to the policy's sub-linear batch
        cost rather than ``size`` full floors -- that amortisation *is*
        the modelled win.  With ``paced_busy`` the floor is *thread CPU
        time*: the worker burns whatever the ECALL's real work has not
        already consumed, so concurrent busy-paced workers genuinely
        serialise on the GIL (the stand-in for a single core) -- the
        compute-bound regime micro-batching is for.  Otherwise the floor
        is wall time spent sleeping, releasing the GIL so paced singles
        overlap across TCS slots (the core-rich regime
        ``repro concurrency`` measures).
        """
        floor = self.scheduler.paced_service_s
        if floor is None:
            return
        if size > 1:
            floor = self._batch_policy.batch_cost_s(floor, size)
        if self.scheduler.paced_busy:
            target = started_cpu + floor
            while time.thread_time() < target:
                pass
        else:
            remaining = floor - (time.monotonic() - started)
            if remaining > 0:
                time.sleep(remaining)

    # -- the action interface ------------------------------------------------------

    def submit(self, enc_request: bytes, uid: str, model_id: str) -> InferenceFuture:
        """Admit one request to the TCS scheduler; returns immediately.

        Returns an :class:`InferenceFuture`; resolve it with
        ``future.result(timeout_s=...)``, poll with ``future.done()``, or
        drop it with ``future.cancel()``.  Raises
        :class:`~repro.errors.QueueFull` when the admission queue is at
        its configured depth (backpressure), and
        :class:`~repro.errors.FaultInjected` when the attached fault
        injector crashes the enclave at this site.
        """
        return self._enqueue(InferenceFuture(enc_request, uid, model_id))

    def open_stream(
        self, enc_request: bytes, uid: str, model_id: str
    ) -> InferenceStream:
        """Admit one autoregressive stream; returns immediately.

        The streaming sibling of :meth:`submit`: the sealed prompt (a
        ``STREAM_AAD`` payload from
        :meth:`~repro.core.client.UserClient.encrypt_stream_request`)
        joins the continuous-batching plane and the returned
        :class:`InferenceStream` yields sealed token frames as they
        decode.  Backpressure (:class:`~repro.errors.QueueFull`) and the
        ``semirt`` crash fault site behave exactly as for :meth:`submit`.
        """
        return self._enqueue(InferenceStream(enc_request, uid, model_id))

    def _enqueue(self, handle):
        """The one admission path: stamp the handle, hand it to a worker."""
        if self._injector is not None and self._injector.crash_enclave("semirt"):
            # the instance dies mid-ECALL: all warm/hot state (model,
            # key cache, runtimes, KeyService channels) is gone and the
            # next request must take the cold path on a fresh enclave
            self.destroy()
            raise FaultInjected("semirt enclave crashed mid-ECALL")
        if not self.enclave.alive:
            raise EnclaveError(f"{self.enclave.enclave_id} is destroyed")
        self._ensure_workers()
        handle.ticket = next(self._ticket_ids)
        if self.tracer is not None:
            handle._parent = self.tracer.current_span()
        try:
            self._queue.put_nowait(handle)
        except queue_module.Full:
            raise QueueFull(
                f"admission queue full ({self.scheduler.queue_depth} waiting); "
                "drain results or raise SchedulerConfig.queue_depth"
            ) from None
        return handle

    def infer(self, enc_request: bytes, uid: str, model_id: str) -> bytes:
        """Serve one request synchronously: submit + result."""
        return self.submit(enc_request, uid, model_id).result()

    def invalidate_keys(
        self, uid: Optional[str] = None, model_id: Optional[str] = None
    ) -> int:
        """Relay a revocation/re-grant to the enclave's key memo.

        Drives ``EC_INVALIDATE_KEYS``; ``None`` matches everything.
        Returns how many memoised entries the enclave dropped.
        """
        return self.enclave.ecall("EC_INVALIDATE_KEYS", uid, model_id)

    def destroy(self) -> None:
        """Tear down the enclave and the scheduler (sandbox reclaim).

        Queued-but-unserved tickets fail with
        :class:`~repro.errors.EnclaveError`; tickets already inside an
        ECALL run to completion against the dying enclave and fail (or
        finish) on their own.
        """
        self.enclave.destroy()
        with self._batch_cv:
            # wake any batch leader in its window wait and any worker
            # blocked on a context reservation; both re-check liveness
            self._batch_cv.notify_all()
        with self._workers_lock:
            workers, self._workers = self._workers, []
        # fail whatever is still queued *before* posting the shutdown
        # sentinels, so a worker never exits with live tickets behind it
        while True:
            try:
                item = self._queue.get_nowait()
            except queue_module.Empty:
                break
            item.set_error(
                EnclaveError(f"{self.enclave.enclave_id} is destroyed")
            )
        for _ in workers:
            self._queue.put(_SHUTDOWN)
