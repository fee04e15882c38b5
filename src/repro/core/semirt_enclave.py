"""SeMIRT, the trusted half: the enclave program (Figure 5, Algorithm 2).

Everything here runs *inside* the enclave; the untrusted host that
launches it, feeds it ciphertext and schedules its TCS slots is
:mod:`repro.core.semirt`.  The import list is the trust boundary made
checkable (``scripts/check_layering.py`` pins it): stdlib, numpy,
``repro.errors``, the wire codec, the stage vocabulary, ``repro.crypto``,
``repro.mlrt``, ``repro.sgx``, ``repro.obs`` -- never the host, its
futures, batch policy or fault injector, the gateway, or platform code.

The ECALL surface is Figure 5's ``EC_MODEL_INF`` / ``EC_GET_OUTPUT`` /
``EC_CLEAR_EXEC_CTX`` plus ``EC_MODEL_INF_BATCH``, the streaming trio
``EC_MODEL_INF_STREAM`` / ``EC_STREAM_STEP`` / ``EC_STREAM_CLOSE`` and the
``EC_INVALIDATE_KEYS`` push hook; the way back out is two OCALLs
(``OC_LOAD_MODEL``, ``OC_FREE_LOADED``) plus the quote/network OCALLs
every enclave needs.  ``EC_MODEL_INF`` returns a *ticket*; the host
fetches and releases that request's output by ticket, so requests
running concurrently on different TCSs never share an output slot.
``EC_MODEL_INF_BATCH`` is the same body over several requests of one
``<uid, M_oid>`` pair (``EC_MODEL_INF`` is its size-one case): the
same-pair security rule is enforced *inside* the enclave -- every
payload must authenticate under that user's request key -- and each
request still gets its own ticketed execution context.  Cached state
drives the cold/warm/hot invocation paths:

- the decrypted **model** lives in the shared enclave heap (one per
  enclave, first thread decrypts under ``_model_lock``, later threads
  reuse);
- ``<uid, M_oid>`` **key pairs** are memoised for the *loaded* model
  (Section IV-B generalised from the paper's single pair to an LRU of
  :data:`KEY_MEMO_ENTRIES`: one entry per hot user, each carrying its
  derived request cipher, so repeat requests skip both the KeyService
  round trip and the AES-GCM context rebuild).  Switching models evicts every entry -- a reload can never
  pair a stale key with a new artifact -- and the KeyService
  re-attestation path (restart, ``EC_RESTORE_STATE``, shard failover)
  flushes the whole cache.  ``EC_INVALIDATE_KEYS`` is the push-side
  hook revocation/re-grant uses;
- the **model runtime** is per-thread (thread-local storage, one per
  TCS -- the host binds one scheduler worker per TCS slot);
- per-request **execution contexts** (the sealed outputs) live in a
  bounded ticket table, at most one per TCS; **stream contexts** (a
  decoder and its KV cache per live stream) live in a second table
  bounded the same way.

Execution-restriction settings -- sequential processing, key-cache off,
runtime cleared per request, pinned model -- are *build settings*: they
change the MRENCLAVE, so KeyService can distinguish a strong-isolation
build from a throughput build (Section V).  The expected KeyService
identity ``E_K`` is likewise compiled in (Appendix A).
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.core.wire as wire
from repro.core.stages import InvocationPlan, SemirtCacheState, Stage, plan_invocation
from repro.crypto.gcm import AESGCM, SessionCipher
from repro.errors import (
    AccessDenied,
    AttestationError,
    CryptoError,
    EnclaveError,
    InvocationError,
    ModelError,
    TransportError,
)
from repro.mlrt.decoder import DecoderSession, greedy
from repro.mlrt.framework import get_framework
from repro.mlrt.model import Model
from repro.obs.tracer import maybe_span
from repro.sgx.attestation import AttestationService, QuotePolicy
from repro.sgx.enclave import EnclaveBuildConfig, EnclaveCode, ecall
from repro.sgx.measurement import EnclaveMeasurement, code_identity_of, measure
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

#: how many ``<uid, M_oid>`` entries the key memo holds (LRU).  Part of
#: the trusted program, not a host option: the untrusted host cannot
#: resize enclave state.  Whether keys are cached at all is the measured
#: ``IsolationSettings.key_cache`` bit.
KEY_MEMO_ENTRIES = 32


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
        return asdict(self)


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


@dataclass(repr=False)  # key material: never in a repr
class _KeyCacheEntry:
    """One memoised ``<uid, M_oid>`` provisioning verdict (trusted heap).

    Holding an entry *is* the cached "KeyService authorised this pair"
    verdict: it carries the two keys plus the request cipher derived
    once (AES key schedule + GHASH tables), so a hot request reuses the
    whole sealed context instead of rebuilding it per ECALL.
    """

    uid: str
    model_id: str
    model_key: bytes
    request_key: bytes

    def __post_init__(self) -> None:
        # derived in-enclave, deliberately NOT through the process-wide
        # AESGCM.derive cache: enclave key state never leaves the enclave
        self.cipher = SessionCipher(AESGCM(self.request_key))


@dataclass(repr=False)  # last_token is user plaintext: never in a repr
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

    uid: str
    model_id: str
    decoder: DecoderSession
    cipher: SessionCipher
    last_token: int
    #: tokens still allowed after the ones already emitted
    remaining: int
    #: frames sealed so far (the next frame's index)
    index: int = 0


class SemirtEnclaveCode(EnclaveCode):
    """The trusted half of SeMIRT."""

    def __init__(
        self,
        framework: str,
        attestation: AttestationService,
        keyservice_measurement: EnclaveMeasurement,
        isolation: Optional[IsolationSettings] = None,
        tracer=None,
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

    def on_destroy(self) -> None:
        """Release the enclave heap: model, key memo, KeyService session,
        execution and stream contexts, per-TCS runtimes."""
        with self._model_lock:
            self._model = self._model_id = None
        with self._kc_lock:
            self._kc.clear()
        self._ks_session = None
        with self._context_lock:
            self._contexts.clear()
        with self._stream_lock:
            self._streams.clear()
        self._tls = threading.local()

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
        return self._serve([enc_request], uid, model_id)[0]

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
        return self._serve(enc_requests, uid, model_id)

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
        self._check_pinned(model_id)
        capacity = self.enclave.config.tcs_count
        with self._stream_lock:
            if len(self._streams) >= capacity:
                raise EnclaveError(
                    f"all {capacity} stream contexts are in use; drain or "
                    "close running streams before opening more"
                )
        self._plan(uid, model_id)
        ctx = self._guarded(uid, model_id, partial(self._open_stream, enc_request, model_id))
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
        :data:`KEY_MEMO_ENTRIES`.
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
                while len(self._kc) > KEY_MEMO_ENTRIES:
                    self._kc.popitem(last=False)
        return entry, False

    def _serve(
        self, enc_requests: Sequence[bytes], uid: str, model_id: str
    ) -> List[int]:
        """The one body behind ``EC_MODEL_INF`` and ``EC_MODEL_INF_BATCH``.

        All-or-nothing: a payload that fails authentication aborts the
        call before any context is committed, so the host's fallback can
        re-dispatch the members individually.
        """
        size = len(enc_requests)
        if size == 0:
            raise InvocationError("refusing an empty batch")
        if self._isolation.sequential and size > 1:
            raise InvocationError(
                "sequential builds never co-execute requests; batch refused"
            )
        self._check_pinned(model_id)
        capacity = self.enclave.config.tcs_count
        with self._context_lock:
            free = capacity - len(self._contexts)
        if size > free:
            raise EnclaveError(
                f"{size} request(s) exceed the free execution contexts "
                f"({free} of {capacity}); fetch or clear pending outputs "
                "before submitting more requests"
            )
        self._plan(uid, model_id)

        def run(entry: _KeyCacheEntry, model: Model):
            runtime = self._thread_runtime(model, model_id)
            return runtime, [
                self._serve_payload(runtime, model, entry.cipher, enc, model_id)
                for enc in enc_requests
            ]

        runtime, outputs = self._guarded(uid, model_id, run)
        with self._context_lock:
            if len(self._contexts) + size > capacity:
                raise EnclaveError(
                    "execution contexts were exhausted while the request executed"
                )
            tickets = [next(self._tickets) for _ in outputs]
            self._contexts.update(zip(tickets, outputs))
        if size > 1:
            self.batch_log.append((uid, model_id, size))
        if self._isolation.clear_context:
            runtime.clear()
            self._tls.runtime = None
            self._tls.runtime_model = None
        return tickets

    def _guarded(self, uid: str, model_id: str, fn):
        """Obtain keys and model, run ``fn(entry, model)``, heal stale memos.

        When a memoised entry's keys no longer authenticate -- the user
        re-granted a fresh request key, or the owner rotated the model
        key -- the first failure drops the entry and retries exactly
        once with freshly provisioned keys; a failure on fresh keys (a
        genuinely forged request) propagates.  One-shot serving and
        stream opening both run under it; only what ``fn`` does with the
        model differs (a per-TCS runtime vs a per-stream decoder).
        """
        entry, from_cache = self._obtain_keys(uid, model_id)
        try:
            return fn(entry, self._switch_model(model_id, entry.model_key))
        except InvocationError:
            if not from_cache:
                raise
            self.EC_INVALIDATE_KEYS(uid, model_id)
            entry, _ = self._obtain_keys(uid, model_id)
            return fn(entry, self._switch_model(model_id, entry.model_key))

    def _open_stream(
        self, enc_request: bytes, model_id: str, entry: _KeyCacheEntry, model: Model
    ) -> _StreamContext:
        """Authenticate a stream request, prefill, emit the first token."""
        with self._stage_span(Stage.REQUEST_DECRYPT, model_id=model_id):
            payload = self._authenticate(
                entry.cipher, enc_request, STREAM_AAD, model_id, "stream request"
            )
        if len(payload["prompt"]) % 4:
            raise InvocationError("prompt is not a whole number of float32 token ids")
        prompt = np.frombuffer(payload["prompt"], dtype=np.float32)
        if prompt.size == 0:
            raise InvocationError("refusing an empty prompt")
        if not np.isfinite(prompt).all():
            raise InvocationError("prompt token ids must be finite")
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

    @staticmethod
    def _authenticate(
        cipher: SessionCipher, sealed: bytes, kind: bytes, model_id: str, what: str
    ) -> dict:
        """Open a sealed payload of AAD ``kind``; anything else is refused."""
        try:
            return wire.loads(cipher.unseal(sealed, aad=kind + model_id.encode()))
        except Exception as exc:
            raise InvocationError(
                f"{what} does not authenticate under the user's request key"
            ) from exc

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
        model = self._model
        if model is None:  # on_destroy() ran under this ECALL
            raise EnclaveError(f"{self.enclave.enclave_id} is destroyed")
        return model

    def _thread_runtime(self, model: Model, model_id: str):
        """Lines 14-15: this TCS thread's model runtime."""
        runtime = getattr(self._tls, "runtime", None)
        runtime_model = getattr(self._tls, "runtime_model", None)
        if (
            runtime is None
            or runtime_model != model_id
            or not self._isolation.reuse_runtime
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
            payload = self._authenticate(
                request_cipher, enc_request, REQUEST_AAD, model_id, "request"
            )
            shape = model.input_spec.shape
            if len(payload["input"]) != 4 * model.input_spec.num_elements:
                # the user's mistake, not the enclave's: a bad request,
                # refused before the runtime sees it
                raise InvocationError(
                    f"input of {len(payload['input'])} bytes is not a "
                    f"float32 tensor of the model's shape {shape}"
                )
            x = np.frombuffer(payload["input"], dtype=np.float32).reshape(shape)
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

    def _stage_span(self, stage: Stage, **attributes):
        """A Figure-4 stage span (no-op context when tracing is off)."""
        return maybe_span(
            self.tracer, f"stage:{stage.value}", stage=stage.value, **attributes
        )

    def _plan(self, uid: str, model_id: str) -> None:
        """Record which invocation path this request is about to take.

        The shared planning representation models one visible
        ``<M_oid, uid>`` pair; with the multi-entry memo the visible pair
        is the *queried* one whenever it is memoised (plans stay exact
        for every hot user), falling back to the most recently used.
        """
        with self._kc_lock:
            if (uid, model_id) in self._kc:
                key_cache = (model_id, uid)
            elif self._kc:
                last_uid, last_model = next(reversed(self._kc))
                key_cache = (last_model, last_uid)
            else:
                key_cache = None
        state = SemirtCacheState(
            enclave_ready=True,  # code running => enclave exists
            loaded_model=self._model_id,
            key_cache=key_cache,
            runtime_for=getattr(self._tls, "runtime_model", None),
        )
        self.last_plan = plan_invocation(
            state,
            model_id,
            uid,
            key_cache_enabled=self._isolation.key_cache,
            reuse_runtime=self._isolation.reuse_runtime,
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
            peer = RatlsPeer(
                "semirt",
                enclave=self.enclave,
                quoter=lambda report: self.ocall("OC_GET_QUOTE", report),
            )
            offer = peer.offer()
            # the reply comes from the untrusted host: refuse a malformed
            # one before anything is derived from it
            reply = self.ocall("OC_KS_HANDSHAKE", offer.to_wire())
            try:
                channel_id, server_offer = reply["channel_id"], reply["server_offer"]
            except (KeyError, TypeError) as exc:
                raise AttestationError(f"malformed handshake reply: {exc!r}") from exc
            if type(channel_id) is not int:
                raise AttestationError("malformed handshake reply: channel_id is not an int")
            channel = complete_handshake(
                peer,
                offer,
                HandshakeOffer.from_wire(server_offer),
                verifier=self._attestation,
                client_requires=QuotePolicy(
                    expected_mrenclave=self._expected_keyservice
                ),
            )
        self._ks_session = (channel_id, channel)
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
            except (CryptoError, EnclaveError, TransportError, wire.WireError) as exc:
                # transport/crypto failure: stale session after a KeyService
                # restart, or a mangled message.  Re-attest and retry exactly
                # once -- a second failure means KeyService is really gone.
                self._ks_session = None
                # the KeyService we re-attest may have restarted from
                # sealed state (EC_SEAL_STATE/EC_RESTORE_STATE) or be a
                # failed-over shard replica: every memoised verdict
                # predates that world, so the memo is flushed wholesale
                self.EC_INVALIDATE_KEYS()
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

