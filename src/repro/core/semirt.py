"""SeMIRT, the untrusted half: the host that launches and feeds the enclave.

The trusted program -- the Figure 5 ECALL surface, keys, model, runtimes
and every plaintext byte -- is :mod:`repro.core.semirt_enclave`; nothing
here ever sees a key or an input.  :class:`SemirtHost` owns the enclave,
wires its OCALLs (model download, quote generation, KeyService
networking over a possibly faulty link) and drives it through a
**TCS-slot scheduler**: one worker per ``tcs_count`` fed by a bounded
admission queue.  ``submit()`` / ``open_stream()`` return an
:class:`InferenceFuture` / :class:`InferenceStream` at once (or raise
:class:`~repro.errors.QueueFull` as backpressure); ``infer()`` is the
blocking composition the serverless action path uses.

**Every ECALL is issued by a slot worker through one driver**
(:meth:`SemirtHost._ecall`: parent-span attach, the ``ecall:<NAME>``
span, the call, pacing inside the span).  A single request is a member
list of one served by the same code as a batch
(:meth:`SemirtHost._serve_members`, then :meth:`SemirtHost._collect` per
ticket); stream-open and stream-step use the same driver; and control
work -- the ``EC_INVALIDATE_KEYS`` revocation push -- travels the
admission queue like a request, so it waits for a slot instead of
colliding with a busy one (``TcsExhausted``).

``SchedulerConfig(batch=BatchPolicy(...))`` arms two leader mechanisms,
kept separate because one collects, closes and executes once while the
other stays open as it decodes: the **batch accumulator** (the first hot
request of a pair waits ``batch_window_s`` for followers, then runs them
through one ``EC_MODEL_INF_BATCH``; ``docs/batching.md``) and the
**continuous-batching stream plane** (a leader steps every live stream
of a pair through one ``EC_STREAM_STEP`` and absorbs joiners between
steps; ``docs/streaming.md``).
"""

from __future__ import annotations

import itertools
import os
import queue as queue_module
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core import wire
from repro.core.batching import BatchPolicy
from repro.core.futures import OutcomeCell, StreamCell
from repro.core.semirt_enclave import (
    IsolationSettings,
    SemirtEnclaveCode,
    default_semirt_config,
)
from repro.core.stages import Stage
from repro.errors import EnclaveError, FaultInjected, QueueFull
from repro.faults.injector import maybe_wire
from repro.obs.tracer import maybe_span
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import Enclave, EnclaveBuildConfig
from repro.sgx.measurement import EnclaveMeasurement
from repro.sgx.platform import SgxPlatform

#: the bound on every scheduler-internal wait (a context reservation, a
#: batch window stretched by a full context table, a control item's
#: turn): long enough that only a wedged enclave reaches it
_WAIT_BOUND_S = 30.0
#: gives up the CPU with the GIL released (``time.sleep(0)`` where the OS
#: has no ``sched_yield``); see :meth:`SemirtHost._deliver_frame`
_yield_cpu = getattr(os, "sched_yield", lambda: time.sleep(0))


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
    is host policy, excluded from ``settings()``/MRENCLAVE.  Enclave
    state is not sized here: the key memo's bound is the trusted
    module's :data:`~repro.core.semirt_enclave.KEY_MEMO_ENTRIES`.
    """

    queue_depth: int = 16
    paced_service_s: Optional[float] = None
    batch: Optional[BatchPolicy] = None
    paced_busy: bool = False

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise EnclaveError("the admission queue needs a depth of at least 1")
        if self.paced_service_s is not None and self.paced_service_s < 0:
            raise EnclaveError("paced_service_s cannot be negative")
        if self.batch is not None and not isinstance(self.batch, BatchPolicy):
            raise EnclaveError("batch must be a repro.core.batching.BatchPolicy")


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


class InferenceStream(StreamCell, _Admitted):
    """A live autoregressive stream: sealed token frames as they decode.

    Returned immediately by :meth:`SemirtHost.open_stream`: the request
    metadata of :class:`InferenceFuture` on the cell's stream view
    (:class:`~repro.core.futures.StreamCell`).  Iterating yields sealed
    frames as the decode loop pushes them, :meth:`result` blocks for the
    whole sequence, and ``token_count`` is how many have arrived.

    :meth:`cancel` stops generation between decode steps: the group
    leader closes the enclave stream context (``EC_STREAM_CLOSE``
    releases the KV cache) before :class:`~repro.errors.RequestCancelled`
    surfaces to iterators and waiters.
    """

    def _what(self) -> str:
        return f"stream for model {self.model_id!r}"


class _KeyInvalidation(_Admitted):
    """A control item: one ``EC_INVALIDATE_KEYS`` push awaiting a slot.

    Queued like a request so a slot worker issues the ECALL between
    requests; resolves to the number of memo entries the enclave dropped.
    """

    def _what(self) -> str:
        return "key invalidation"


class _FormingBatch:
    """One accumulating hot-path batch: the leader plus joined followers.

    Host-side bookkeeping only -- the enclave re-checks the same-pair
    rule on every ``EC_MODEL_INF_BATCH`` regardless of what the host
    accumulated (each payload must authenticate under *that* user's
    request key).
    """

    def __init__(self, leader: InferenceFuture) -> None:
        self.pair = (leader.uid, leader.model_id)
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
        self.pair = (leader.uid, leader.model_id)
        #: streams waiting for the leader to open them in-enclave
        self.joiners: List[InferenceStream] = [leader]
        #: ``(enclave ticket, stream)`` pairs currently decoding
        self.members: List[Tuple[int, InferenceStream]] = []
        self.closed = False


#: queue sentinel telling a scheduler worker to exit
_SHUTDOWN = object()


class SemirtHost:
    """Untrusted host side of a SeMIRT instance (see the module docs).

    :meth:`submit` and :meth:`open_stream` are the asynchronous entry
    points (how ``infer_many`` keeps a multi-TCS enclave full);
    :meth:`infer` is the blocking composition.  Everything relayed is
    ciphertext.
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
        #: optional repro.faults.injector.FaultInjector; wire sites wrap the
        #: KeyService OCALLs, the crash site fires per submitted request
        self._injector = injector
        code = SemirtEnclaveCode(
            framework=framework,
            attestation=attestation,
            keyservice_measurement=keyservice_host.measurement,
            isolation=isolation,
            tracer=tracer,
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
            item.tcs_slot = slot
            item.queue_wait = time.monotonic() - item.created_at
            if item.cancel_requested():
                # never reached the enclave: no context to clear
                item.set_cancelled()
            elif isinstance(item, InferenceStream):
                self._handle_stream(item, slot)
            elif isinstance(item, _KeyInvalidation):
                try:
                    item.set_result(
                        self._ecall(
                            "EC_INVALIDATE_KEYS", item.uid, item.model_id,
                            under=item._parent, tcs_slot=slot,
                        )
                    )
                except BaseException as exc:  # noqa: BLE001 - relayed to the waiter
                    item.set_error(exc)
            elif self._batch_policy is None or not self._maybe_batch(item, slot):
                self._serve_one(item, slot)

    def _serve_one(self, future: InferenceFuture, slot: int) -> None:
        """Serve one request as a member list of one, resolving its future."""
        try:
            self._serve_members([future], slot)
        except BaseException as exc:  # noqa: BLE001 - relayed to the waiter
            future.set_error(exc)

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
                and forming.pair == pair
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
        hard_deadline = deadline + _WAIT_BOUND_S
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
        batched = len(live) > 1  # a batch of one is just a single request
        if batched and self._injector is not None and self._injector.crash_enclave(
            "semirt:batch"
        ):
            # the leader dies mid-batch: followers must never hang,
            # whatever teardown itself does
            try:
                self.destroy()
            finally:
                for member in live:
                    member.set_error(
                        FaultInjected("semirt enclave crashed mid-batch ECALL")
                    )
            return
        try:
            self._serve_members(live, slot)
        except BaseException as exc:  # noqa: BLE001 - fall back or fail over
            if not batched or not self.enclave.alive:
                for member in live:
                    member.set_error(exc)
                return
            # the batch ECALL failed but the enclave survived (e.g. one
            # member's payload refused to authenticate): re-dispatch the
            # members individually so good requests still complete --
            # the batch's reservation is released by now, so the singles
            # cannot deadlock against our own accounting
            for member in live:
                self._serve_one(member, slot)

    # -- the ECALL cycle: one driver, one serve, one collect -------------------------

    def _ecall(self, name: str, *args, under=None, paced: int = 0, **attributes):
        """Issue one ECALL from this slot worker: the only way into the enclave.

        Re-parents under ``under`` (the span ambient at admission -- the
        ambient stack is per thread), opens the ``ecall:<name>`` span
        with ``attributes``, makes the call and, when ``paced`` gives
        the number of requests it served, spends the rest of their
        service-time floor *inside* the span, where SGX would spend it.
        Bookkeeping ECALLs (fetch, clear, close, invalidate) are unpaced.
        """
        attach = (
            self.tracer.attach(under)
            if self.tracer is not None and under is not None
            else nullcontext()
        )
        with attach:
            started = time.monotonic()
            started_cpu = time.thread_time()
            with maybe_span(self.tracer, f"ecall:{name}", **attributes):
                result = self.enclave.ecall(name, *args)
                if paced:
                    self._pace(started, started_cpu, paced)
        return result

    def _serve_members(self, members: List[InferenceFuture], slot: int) -> None:
        """Drive one inference ECALL cycle, settling every member.

        A single request is a member list of one and still issues
        ``EC_MODEL_INF``; more members ride one ``EC_MODEL_INF_BATCH``.
        Raises only when that ECALL itself fails (no context was
        committed -- the enclave is all-or-nothing) so a batch leader
        can fall back to singles; a reservation that cannot be had and
        per-member fetch failures settle the futures here.
        """
        leader = members[0]
        size = len(members)
        try:
            self._reserve_contexts(size)
        except BaseException as exc:  # noqa: BLE001 - relayed to the waiters
            for member in members:
                member.set_error(exc)
            return
        if size == 1:
            name, sealed, batch = "EC_MODEL_INF", leader._enc_request, {}
        else:
            name, sealed = "EC_MODEL_INF_BATCH", [m._enc_request for m in members]
            batch = dict(
                batch_size=size,
                leader_ticket=leader.ticket,
                amortised_s=self._amortised_s(size),
            )
        try:
            tickets = self._ecall(
                name, sealed, leader.uid, leader.model_id,
                under=leader._parent,
                paced=size,
                model_id=leader.model_id,
                tcs_slot=slot,
                **batch,
                queue_wait=leader.queue_wait,
            )
            if size == 1:
                tickets = [tickets]
            for member, ticket in zip(members, tickets):
                member.tcs_slot = slot
                self._collect(member, ticket, slot, leader._parent)
        finally:
            with self._batch_cv:
                self._contexts_in_flight -= size
                self._batch_cv.notify_all()
        self._note_served(leader.uid, leader.model_id)

    def _collect(self, member: InferenceFuture, ticket: int, slot: int, under) -> None:
        """Settle one served member from its enclave ticket: fetch, then clear.

        A member cancelled after its context was created is never
        fetched; its context is cleared before ``RequestCancelled``
        surfaces (the cell turns the result into the promised
        cancellation).  A failure here is this member's alone.
        """
        try:
            output = None
            if not member.cancel_requested():
                output = self._ecall("EC_GET_OUTPUT", ticket, under=under, tcs_slot=slot)
            self._ecall("EC_CLEAR_EXEC_CTX", ticket, under=under, tcs_slot=slot)
        except BaseException as exc:  # noqa: BLE001 - this member only
            member.set_error(exc)
        else:
            member.set_result(output)

    def _amortised_s(self, size: int) -> Optional[float]:
        """Per-member share of a paced batch's cost (a span attribute)."""
        floor = self.scheduler.paced_service_s
        if floor is None or self._batch_policy is None:
            return None
        return self._batch_policy.amortised_s(floor, size)

    def _reserve_contexts(self, n: int) -> None:
        """Block until ``n`` enclave execution contexts can be held.

        The enclave's own capacity check (``EC_MODEL_INF_BATCH`` refuses
        to overflow the context table) stays the backstop; this keeps a
        batch from racing concurrent singles into that error.
        """
        capacity = self.enclave.config.tcs_count
        deadline = time.monotonic() + _WAIT_BOUND_S
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

    def _note_served(self, uid: str, model_id: str) -> None:
        """Remember the pair that just served: the next one may be hot.

        Only meaningful when the build caches keys -- without the key
        cache no request is ever hot, so leading a batch would spend the
        window for nothing.
        """
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
                and group.pair == (stream.uid, stream.model_id)
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
                        self._close_stream_group(group)
                    return
                if self._injector is not None and self._injector.crash_enclave(
                    "semirt:batch"
                ):
                    # the leader dies mid-decode: members must never hang
                    self.destroy()
                    raise FaultInjected("semirt enclave crashed mid-stream step")
                self._step_stream_group(group, slot)
        except BaseException as exc:  # noqa: BLE001 - relayed to members and joiners
            with self._batch_cv:
                self._close_stream_group(group)
                members, group.members = group.members, []
                joiners, group.joiners = group.joiners, []
            for stream in [stream for _, stream in members] + joiners:
                stream.set_error(exc)

    def _close_stream_group(self, group: _StreamGroup) -> None:
        """Stop admitting joiners (caller holds ``_batch_cv``).

        Closing under the same lock hold that found the group empty (or
        took its members to fail them) is what guarantees no joiner is
        ever stranded in a group nobody leads.
        """
        group.closed = True
        if self._stream_group is group:
            self._stream_group = None

    def _open_stream_member(
        self, group: _StreamGroup, stream: InferenceStream, slot: int
    ) -> None:
        """Open one stream in-enclave (prefill) and push its first frame."""
        stream.tcs_slot = slot
        if stream.cancel_requested():
            # never reached the enclave: no stream context to close
            stream.set_cancelled()
            return
        try:
            # prefill costs one full service-time floor (it runs the
            # whole prompt), whatever the group size
            ticket, frame, done = self._ecall(
                "EC_MODEL_INF_STREAM", stream._enc_request, stream.uid,
                stream.model_id,
                under=stream._parent,
                paced=1,
                model_id=stream.model_id,
                tcs_slot=slot,
                ticket=stream.ticket,
                queue_wait=stream.queue_wait,
            )
        except BaseException as exc:  # noqa: BLE001 - this stream only
            stream.set_error(exc)
            return
        self._deliver_frame(stream, frame)
        if done:
            stream.set_result()
        else:
            with self._batch_cv:
                group.members.append((ticket, stream))
        self._note_served(stream.uid, stream.model_id)

    @staticmethod
    def _deliver_frame(stream: InferenceStream, frame: bytes) -> None:
        """Push one sealed frame, then hand the CPU to its consumer.

        The push only makes a blocked consumer runnable; this worker goes
        on decoding with the GIL held.  On one core the consumer would
        then run whenever the OS next preempts the worker -- at once, or
        up to about a millisecond and several frames later, depending on
        the kernel's slice accounting rather than on the work -- so
        time-to-first-token would be bimodal.  Yielding with the GIL
        released lets the consumer take the frame now.
        """
        stream.push(frame)
        _yield_cpu()

    def _drop_cancelled_streams(self, group: _StreamGroup, slot: int) -> None:
        """Release cancelled members' enclave contexts, then drop them."""
        live: List[Tuple[int, InferenceStream]] = []
        for ticket, stream in group.members:
            if not stream.cancel_requested():
                live.append((ticket, stream))
                continue
            try:
                self._ecall("EC_STREAM_CLOSE", ticket, tcs_slot=slot)
            except BaseException:  # noqa: BLE001 - enclave died; context gone with it
                pass
            stream.set_cancelled()
        with self._batch_cv:
            group.members = live

    def _step_stream_group(self, group: _StreamGroup, slot: int) -> None:
        """Advance every live member one token via one ``EC_STREAM_STEP``."""
        members = list(group.members)
        size = len(members)
        results = self._ecall(
            "EC_STREAM_STEP",
            [ticket for ticket, _ in members],
            under=members[0][1]._parent,
            paced=size,
            model_id=group.pair[1],
            tcs_slot=slot,
            batch_size=size,
            amortised_s=self._amortised_s(size),
        )
        live: List[Tuple[int, InferenceStream]] = []
        for (ticket, stream), (frame, done) in zip(members, results):
            self._deliver_frame(stream, frame)
            if done:
                stream.set_result()
            else:
                live.append((ticket, stream))
        with self._batch_cv:
            group.members = live
        self._note_served(*group.pair)

    def _pace(self, started: float, started_cpu: float, size: int) -> None:
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
        ``repro run concurrency`` measures).
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

    def _enqueue(self, item, wait_s: float = 0.0):
        """The one admission path: stamp the item, hand it to a worker.

        ``wait_s`` is how long a full queue is waited out before
        :class:`~repro.errors.QueueFull`: requests are shed at once
        (backpressure), control items are not.
        """
        if self._injector is not None and self._injector.crash_enclave("semirt"):
            # the instance dies mid-ECALL: all warm/hot state (model,
            # key cache, runtimes, KeyService channels) is gone and the
            # next request must take the cold path on a fresh enclave
            self.destroy()
            raise FaultInjected("semirt enclave crashed mid-ECALL")
        if not self.enclave.alive:
            raise EnclaveError(f"{self.enclave.enclave_id} is destroyed")
        self._ensure_workers()
        item.ticket = next(self._ticket_ids)
        if self.tracer is not None:
            item._parent = self.tracer.current_span()
        try:
            self._queue.put(item, timeout=wait_s)
        except queue_module.Full:
            raise QueueFull(
                f"admission queue full ({self.scheduler.queue_depth} waiting); "
                "drain results or raise SchedulerConfig.queue_depth"
            ) from None
        return item

    def infer(self, enc_request: bytes, uid: str, model_id: str) -> bytes:
        """Serve one request synchronously: submit + result."""
        return self.submit(enc_request, uid, model_id).result()

    def invalidate_keys(
        self, uid: Optional[str] = None, model_id: Optional[str] = None
    ) -> int:
        """Relay a revocation/re-grant to the enclave's key memo.

        Drives ``EC_INVALIDATE_KEYS``; ``None`` matches everything.
        Returns how many memoised entries the enclave dropped.  The push
        is a control item on the scheduler queue: it waits its turn for
        a TCS slot behind the requests already admitted -- a busy
        enclave delays it, never refuses it.  The wait is bounded: a
        queue that stays full raises :class:`~repro.errors.QueueFull`,
        a slot that never comes :class:`~repro.errors.DeadlineExceeded`
        (the push still lands if a worker reaches it later -- dropping
        memo entries is always safe); a destroyed enclave raises
        :class:`~repro.errors.EnclaveError`.
        """
        item = self._enqueue(
            _KeyInvalidation(b"", uid, model_id), wait_s=_WAIT_BOUND_S
        )
        return item.result(timeout_s=_WAIT_BOUND_S)

    def destroy(self) -> None:
        """Tear down the enclave and the scheduler (sandbox reclaim).

        Queued-but-unserved tickets fail with
        :class:`~repro.errors.EnclaveError`; tickets already inside an
        ECALL run to completion against the dying enclave and fail (or
        finish) on their own.  Safe to call again, also concurrently
        (two crashing batch leaders, a crash racing the owner's
        teardown): only the first caller retires the workers; a later
        one still fails whatever tickets it finds queued.
        """
        self.enclave.destroy()
        with self._batch_cv:
            # wake any batch leader in its window wait and any worker
            # blocked on a context reservation; both re-check liveness
            self._batch_cv.notify_all()
        with self._workers_lock:
            workers, self._workers = self._workers, []
        # fail whatever is still queued *before* posting the shutdown
        # sentinels, so a worker never exits with live tickets behind it;
        # a sentinel found here is owed to a worker an earlier destroy()
        # retired, so it goes back in
        sentinels = len(workers)
        while True:
            try:
                item = self._queue.get_nowait()
            except queue_module.Empty:
                break
            if item is _SHUTDOWN:
                sentinels += 1
            else:
                item.set_error(
                    EnclaveError(f"{self.enclave.enclave_id} is destroyed")
                )
        for _ in range(sentinels):
            self._queue.put(_SHUTDOWN)
