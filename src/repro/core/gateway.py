"""InferenceGateway: the functional twin's routing front end.

The paper's FnPacker routes *simulated* requests; this module puts the
same routing plane (:mod:`repro.routing`) in front of live
:class:`~repro.core.semirt.SemirtHost` endpoints, so a request that
runs real crypto and a real model flows through the identical
Section IV-C policy the benchmarks measure.

The gateway owns the endpoint fleet for one :class:`FnPool`:

- hosts launch **lazily** through a caller-supplied ``launcher``
  callback the first time the router picks their endpoint (the cold
  start happens inside the request, like a serverless platform);
- :class:`~repro.errors.QueueFull` from an endpoint's admission queue
  is **backpressure, not failure**: the gateway excludes that endpoint
  and reroutes -- it never blind-retries into the same full queue
  (see ``docs/faults.md``).  Only when *every* endpoint is saturated
  does the ``QueueFull`` surface to the caller;
- a crashed endpoint is marked down and the request **reroutes** to a
  healthy peer (``redispatch_on_crash``); when no peer is left the
  gateway relaunches the endpoint cold -- which is exactly the
  single-endpoint degenerate case a plain
  :meth:`~repro.core.deployment.SeSeMIEnvironment.session` is built on;
- endpoints can be drained then retired.

Every dispatched request emits a ``route`` span on the tracer with the
decision attributes (``endpoint``, ``exclusive``, ``reroutes``), so
FnPacker packing behaviour is observable on the functional twin too.

When an endpoint's scheduler runs the hot-path **batch accumulator**
(``SchedulerConfig.batch``), the gateway additionally keeps a
:class:`~repro.routing.BatchAffinity` hint: the next request for a
``<uid, model_id>`` pair is offered to the endpoint that just served
it, so the accumulator actually sees followers to merge.  The hint is
tried once per dispatch, surfaces as the ``batch_affinity`` attribute
on the ``route`` span, and is dropped the moment the endpoint is
excluded, saturated, draining, pinned to another model, or dead --
batching is a throughput hint, never a correctness constraint
(``docs/batching.md``).

Arming ``GatewayConfig.warm_pool`` puts a
:class:`~repro.warmpool.manager.WarmPoolManager` in charge of the fleet's
temperature: warm-endpoint reuse follows the configured strategy (a
one-shot hint, same discipline as batch affinity), every dispatch is
classified cold/warm/hot, measured cold-start latency lands on the
:class:`RouteDecision` and the ``route`` span, and periodic
:meth:`InferenceGateway.maintain` calls run the scale-to-zero janitor
(``docs/warmpool.md``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.batching import submit_window
from repro.core.futures import DerivedHandle, DerivedStream
from repro.core.semirt import SemirtHost
from repro.errors import (
    DeadlineExceeded,
    EnclaveError,
    QueueFull,
    RoutingError,
    SeSeMIError,
    TransportError,
)
from repro.obs.span import WallClock
from repro.obs.tracer import Tracer, maybe_span
from repro.routing import BatchAffinity, FnPackerRouter, FnPool, Router
from repro.warmpool.manager import WarmPoolConfig, WarmPoolManager

#: a host launcher: endpoint name -> live SemirtHost
HostLauncher = Callable[[str], SemirtHost]

#: failed serving attempts one request is re-admitted after, at most
#: (admission-time crashes and mid-serve deaths share the budget)
MAX_REDISPATCH = 2


@dataclass(frozen=True)
class GatewayConfig:
    """Behaviour knobs for one :class:`InferenceGateway`.

    ``redispatch_on_crash`` controls whether an endpoint failure is
    absorbed by rerouting (the fleet case) or surfaced to the caller
    (the degenerate single-endpoint session, where the caller's own
    resilience layer owns the retry decision).

    ``warm_pool`` arms a :class:`~repro.warmpool.manager.WarmPoolManager`: warm
    endpoint reuse becomes strategy-driven and idle endpoints are retired
    by the janitor through :meth:`InferenceGateway.maintain`.

    Which router runs is not a knob here: pass ``router=`` to the
    gateway (default :class:`~repro.routing.FnPackerRouter`).
    """

    redispatch_on_crash: bool = True
    warm_pool: Optional[WarmPoolConfig] = None


@dataclass
class RouteDecision:
    """How one request was routed (mirrored onto the ``route`` span)."""

    endpoint: str
    exclusive: bool = False
    reroutes: int = 0          # endpoint exclusions before this one landed
    redispatches: int = 0      # failed serving attempts before this one
    cold: bool = False         # the endpoint's host was launched for this request
    cold_start_s: float = 0.0  # wall-clock launch duration when cold
    temperature: str = ""      # cold/warm/hot (warm pool armed only)
    batch_affinity: bool = False  # endpoint chosen by the batch-affinity hint
    warm_hint: bool = False    # endpoint chosen by the warm-pool strategy


@dataclass
class GatewayReply:
    """The encrypted response plus its routing decision."""

    output: bytes
    decision: RouteDecision
    host: SemirtHost = field(repr=False, default=None)

    @property
    def flavor(self) -> str:
        """How the request was served: ``cold``, else the host's plan kind."""
        if self.decision.cold:
            return "cold"
        plan = self.host.code.last_plan
        return plan.kind.value if plan else "warm"


class InferenceGateway:
    """Route functional requests over a fleet of live SeMIRT endpoints."""

    def __init__(
        self,
        pool: FnPool,
        launcher: HostLauncher,
        *,
        config: Optional[GatewayConfig] = None,
        router: Optional[Router] = None,
        tracer: Optional[Tracer] = None,
        clock=None,
    ) -> None:
        self.pool = pool
        self.config = config if config is not None else GatewayConfig()
        self.router = router if router is not None else FnPackerRouter(pool)
        self.tracer = tracer
        # exclusivity lapse and keep-alive both read this clock, so it
        # must always tell a time
        self._clock = clock or (tracer.clock if tracer is not None else WallClock())
        self._launcher = launcher
        self._hosts: Dict[str, SemirtHost] = {}
        self._owned: Set[str] = set()
        self.warm_pool: Optional[WarmPoolManager] = (
            WarmPoolManager(self.config.warm_pool)
            if self.config.warm_pool is not None
            else None
        )
        self._in_flight = 0
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._launch_lock = threading.Lock()
        #: <uid, model_id> -> endpoint hints, fed only by endpoints whose
        #: scheduler runs the batch accumulator (see _admit)
        self._affinity = BatchAffinity()

    # -- fleet wiring -----------------------------------------------------------

    def attach(self, endpoint: str, host: SemirtHost) -> None:
        """Bind a pre-launched (shared) host to ``endpoint``.

        Attached hosts are used, never owned: :meth:`close` and
        retirement leave them running for whoever launched them.
        """
        if endpoint not in dict(self.router.endpoints()):
            raise RoutingError(f"unknown endpoint {endpoint!r}")
        with self._lock:
            self._hosts[endpoint] = host
            self._owned.discard(endpoint)
        if self.warm_pool is not None:
            # attached hosts are warm from the start but never the
            # janitor's to retire
            self.warm_pool.on_launch(endpoint, self._now(), pinned=True)

    def host(self, endpoint: str) -> Optional[SemirtHost]:
        """The live host bound to ``endpoint`` (``None`` before launch)."""
        with self._lock:
            return self._hosts.get(endpoint)

    def hosts(self) -> Dict[str, SemirtHost]:
        """A snapshot of all live endpoint hosts."""
        with self._lock:
            return dict(self._hosts)

    def primary_host(self) -> Optional[SemirtHost]:
        """The single live host of a one-endpoint gateway (else first)."""
        with self._lock:
            return next(iter(self._hosts.values()), None)

    @property
    def endpoint_count(self) -> int:
        return len(self.router.endpoints())

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def _now(self) -> float:
        return self._clock.now()

    def _hint_usable(
        self, endpoint: Optional[str], model_id: str, exclude: Set[str], idle: bool
    ) -> bool:
        """Whether a hinted endpoint may be offered ahead of the router's pick.

        A hint can lag the router by a dispatch, so the router's view is
        the authority: the endpoint must be known, unexcluded, accepting
        traffic and not pinned to another model.  A warm-pool hint
        (``idle``) must also have nothing pending on a live host --
        otherwise there is nothing warm to reuse and the router decides.
        """
        if endpoint is None or endpoint in exclude:
            return False
        state = self.router.state(endpoint)
        if (
            state is None
            or not state.available
            or state.exclusive_for not in (None, model_id)
        ):
            return False
        if not idle:
            return True
        host = self.host(endpoint)
        return state.pending == 0 and host is not None and host.enclave.alive

    # -- dispatch ----------------------------------------------------------------

    def dispatch(
        self,
        enc_request: bytes,
        user_id: str,
        model_id: str,
        timeout_s: Optional[float] = None,
    ) -> GatewayReply:
        """Route one encrypted request to an endpoint and serve it.

        The blocking composition of :meth:`submit`: the same admission
        walk, then the wait (inside the ``route`` span).  With no
        ``timeout_s`` the endpoint is asked through
        :meth:`~repro.core.semirt.SemirtHost.claim`, so a free TCS slot
        serves the request on this thread, after the admission
        bookkeeping and before the settle; a deadline keeps it on the
        endpoint's queue, which a wait can give up on.  An endpoint
        that dies *mid-serve* is excluded and the request re-admitted,
        up to :data:`MAX_REDISPATCH` times across the whole dispatch.

        Raises whatever the serving attempt raised once rerouting and
        redispatching are exhausted; :class:`QueueFull` means the whole
        fleet is saturated (backpressure -- the caller should shed or
        slow down, not retry immediately).
        """
        exclude: Set[str] = set()
        decision = RouteDecision(endpoint="")

        def entry(host):
            return host.claim if timeout_s is None else host.submit

        while True:
            handle = self._admit(
                GatewaySubmission, entry, enc_request, user_id, model_id, exclude, decision
            )
            try:
                with self._route_span(handle, "dispatch"):
                    output = handle.result(timeout_s)
            except DeadlineExceeded as exc:
                # the caller gave up on a request nobody else holds: it
                # is cancelled (so it never takes a TCS slot for an output
                # nobody reads), its slot is released and the endpoint
                # charged a failure
                handle.inner.cancel()
                handle._settle_once(exc)
                raise
            except (EnclaveError, TransportError):
                if not self._may_redispatch(decision):
                    raise
                exclude.add(handle.endpoint)
                continue
            return GatewayReply(output=output, decision=decision, host=handle.host)

    def submit(
        self, enc_request: bytes, user_id: str, model_id: str
    ) -> "GatewaySubmission":
        """Admit one encrypted request and return a polling handle.

        The async face of :meth:`dispatch`: the admission-time routing
        walk (affinity hint, ``QueueFull`` reroute,
        crash redispatch) runs here, but instead of blocking for the
        output the gateway returns a :class:`GatewaySubmission` over the
        endpoint's :class:`InferenceFuture`.  Rerouting is
        **admission-time only** -- once the request sits in an
        endpoint's queue, a later endpoint death surfaces through the
        handle rather than being silently redispatched (the service
        tier owns that retry decision).

        Raises :class:`QueueFull` when the whole fleet is saturated,
        exactly like :meth:`dispatch`.
        """
        return self._admit_async(
            GatewaySubmission, lambda host: host.submit, "admit",
            enc_request, user_id, model_id,
        )

    def open_stream(
        self, enc_request: bytes, user_id: str, model_id: str
    ) -> "GatewayStream":
        """Admit one autoregressive stream and return its frame handle.

        The streaming face of :meth:`submit`: the identical admission
        walk routes the sealed prompt, and the affinity hint doubles as
        **stream-affinity routing** -- later streams for the same
        ``<uid, model_id>`` pair are offered to the endpoint already
        decoding that pair, which is what lets the endpoint's continuous
        batcher merge them into its running group.  Rerouting is
        admission-time only; once decoding starts, a mid-stream endpoint
        death surfaces through the stream's iterator.
        """
        return self._admit_async(
            GatewayStream, lambda host: host.open_stream, "stream",
            enc_request, user_id, model_id,
        )

    def feed_window(self, admitted: "GatewaySubmission") -> int:
        """In-flight requests a pipelining session keeps behind ``admitted``.

        Read off the host that admitted it
        (:func:`~repro.core.batching.submit_window`): its ``tcs_count``,
        widened to two full batches when its batch accumulator is armed.
        """
        host = admitted.host
        return submit_window(host.batch_policy, host.enclave.config.tcs_count)

    def _admit_async(
        self, handle_type, entry: Callable, phase: str, enc_request, user_id, model_id
    ):
        handle = self._admit(
            handle_type, entry, enc_request, user_id, model_id, set(),
            RouteDecision(endpoint=""),
        )
        with self._route_span(handle, phase):
            pass  # admission-time decision span; serving runs async
        return handle

    def _route_span(self, handle: "GatewaySubmission", phase: str):
        """The ``route`` span of one admission: the decision as attributes.

        ``vars()`` of the flat :class:`RouteDecision` is its fields by name;
        ``dataclasses.asdict`` says the same at ~12 us a request.
        """
        return maybe_span(
            self.tracer,
            "route",
            model_id=handle.model_id,
            phase=phase,
            **vars(handle.decision),
        )

    def _may_redispatch(self, decision: RouteDecision) -> bool:
        """Charge one failed serving attempt; ``False`` means surface it."""
        if not self.config.redispatch_on_crash or decision.redispatches >= MAX_REDISPATCH:
            return False
        decision.redispatches += 1
        return True

    def _admit(
        self,
        handle_type,
        entry: Callable,
        enc_request: bytes,
        user_id: str,
        model_id: str,
        exclude: Set[str],
        decision: RouteDecision,
    ):
        """The one admission-time routing walk.

        For each candidate endpoint (:meth:`_candidate`: the two one-shot
        hints, then the router's picks): no live host -> launch or
        reroute; admit through the entry point that ``entry(host)`` names
        (``host.submit``, ``host.claim`` or ``host.open_stream``) and
        return the ``handle_type`` over the endpoint's handle.  Every candidate that
        cannot take the request joins ``exclude`` and is never offered
        again, which is what bounds the walk.  ``exclude`` and
        ``decision`` are the caller's: :meth:`dispatch` shares them across
        re-admissions so a crashed endpoint stays excluded and the
        redispatch budget is global.

        Raises :class:`QueueFull` when every endpoint that could be
        offered the request refused it.
        """
        hints = self._hints(user_id, model_id)
        refused: Optional[QueueFull] = None  # backpressure met on the way
        while True:
            try:
                endpoint = self._candidate(hints, model_id, exclude, decision)
            except RoutingError:
                # The candidates ran out.  A saturated fleet surfaces the
                # remembered QueueFull; a janitor-emptied one (scale-to-zero:
                # nothing refused, nothing excluded, nothing there at all)
                # regrows on demand -- the cold start is the request's price.
                # The grown endpoint is hostless, so the next candidate is it.
                if refused is not None:
                    raise refused
                emptied = self.warm_pool is not None and not exclude
                if emptied and model_id in self.pool.models and self._grow_fleet():
                    continue
                raise
            launched = self._ensure_host(endpoint, model_id, exclude)
            if launched is not None:
                host, decision.cold, decision.cold_start_s = launched
                decision.endpoint = endpoint
                try:
                    inner = entry(host)(enc_request, user_id, model_id)
                except QueueFull as exc:
                    refused = exc
                except (EnclaveError, TransportError):
                    # the endpoint died at admission (e.g. an injected
                    # crash): nothing was enqueued, so only health changes.
                    self._note_endpoint_death(endpoint)
                    if not self._may_redispatch(decision):
                        raise
                    exclude.add(endpoint)
                    continue
                else:
                    break
            exclude.add(endpoint)
            decision.reroutes += 1
        now = self._now()
        self.router.on_dispatch(endpoint, model_id, now)
        if self.warm_pool is not None:
            decision.temperature = self.warm_pool.on_dispatch(
                endpoint, model_id, now, launched=decision.cold
            )
        with self._lock:
            self._in_flight += 1
        state = self.router.state(endpoint)
        decision.exclusive = state is not None and state.exclusive_for == model_id
        if host.batch_policy is not None:
            # only accumulator-armed endpoints benefit from keeping
            # the pair's traffic together.  Remember at *admission*:
            # followers submitted while this request is still queued
            # are exactly the ones the accumulator can merge with it
            # -- and for streams, the ones its continuous batcher
            # can absorb mid-decode
            self._affinity.remember(user_id, model_id, endpoint)
        return handle_type(self, inner, endpoint, model_id, decision, host)

    def _hints(
        self, user_id: str, model_id: str
    ) -> Iterator[Tuple[str, Optional[str], bool]]:
        """The one-shot candidates: ``(decision flag, endpoint, must be idle)``.

        Lazy, so the warm pool is only asked once the batch-affinity
        endpoint (where the pair's accumulator or running stream group
        is) could not take the request.
        """
        yield "batch_affinity", self._affinity.lookup(user_id, model_id), False
        if self.warm_pool is not None:
            yield "warm_hint", self.warm_pool.suggest(model_id, self._now()), True

    def _candidate(
        self, hints, model_id: str, exclude: Set[str], decision: RouteDecision
    ) -> str:
        """The next endpoint to offer the request to (never one in ``exclude``).

        Hints first, each tried at most once and only while
        :meth:`_hint_usable`; then the router's pick; and when the router
        has nowhere to go, an endpoint without a live host, relaunched in
        place.  Raises the router's :class:`RoutingError` when nothing is
        left.
        """
        decision.batch_affinity = decision.warm_hint = False
        for flag, endpoint, idle in hints:
            if self._hint_usable(endpoint, model_id, exclude, idle):
                setattr(decision, flag, True)
                return endpoint
        try:
            endpoint = self.router.route(model_id, self._now(), frozenset(exclude))
        except RoutingError:
            endpoint = next(self._hostless(exclude, model_id), None)
            if endpoint is None:
                raise
        if endpoint in exclude:
            raise RoutingError(
                f"{type(self.router).__name__} offered excluded endpoint {endpoint!r}"
            )
        return endpoint

    def _settle(
        self,
        handle: "GatewaySubmission",
        error: Optional[BaseException],
        cancelled: bool,
    ) -> None:
        """Close the books on one admitted request (runs exactly once).

        The settle hook of every gateway handle: releases the in-flight
        slot, tells the router (and warm pool) how the dispatch ended,
        and marks the endpoint dead when its enclave did not survive.  A
        cancel is not an endpoint failure: the router sees a completion.
        """
        ok = cancelled or error is None
        now = self._now()
        for observer in (self.router, self.warm_pool):
            if observer is not None:
                report = observer.on_complete if ok else observer.on_failure
                report(handle.endpoint, handle.model_id, now)
        with self._lock:
            self._in_flight -= 1
            self._idle.notify_all()
        if not ok and not handle.host.enclave.alive:
            self._note_endpoint_death(handle.endpoint)

    # -- endpoint hosts ----------------------------------------------------------

    def ensure_host(self, endpoint: Optional[str] = None) -> Tuple[SemirtHost, bool]:
        """The live host for ``endpoint`` (default: the sole/first one).

        Launches it cold when missing or dead; returns ``(host, cold)``.
        Requests never take this path -- it exists for callers that
        pre-launch or introspect an endpoint (benchmark warm-up).
        """
        if endpoint is None:
            endpoint = self.router.endpoints()[0][0]
        host, cold, _ = self._launch(endpoint)  # a no-op over a live host
        return host, cold

    def _ensure_host(
        self, endpoint: str, model_id: str, exclude: Set[str]
    ) -> Optional[Tuple[SemirtHost, bool, float]]:
        """The live host for ``endpoint``, launching it cold if needed.

        Returns ``(host, cold, launch_seconds)`` -- or ``None`` when the
        bound host died and a healthy peer that serves ``model_id``
        remains: the endpoint is marked down and the request should
        reroute rather than pay an in-request relaunch.  With no peer
        left the endpoint is relaunched in place.
        """
        with self._lock:
            host = self._hosts.get(endpoint)
        if host is not None and host.enclave.alive:
            return host, False, 0.0
        if host is not None and any(
            name != endpoint and (peer is None or peer.enclave.alive)
            for name, peer in self._fleet(exclude, model_id)
        ):
            self._note_endpoint_death(endpoint)
            return None
        return self._launch(endpoint)

    def _launch(self, endpoint: str) -> Tuple[SemirtHost, bool, float]:
        with self._launch_lock:
            with self._lock:
                host = self._hosts.get(endpoint)
                owned = endpoint in self._owned
            if host is not None and host.enclave.alive:
                return host, False, 0.0  # a concurrent request already launched it
            if host is not None and owned:
                host.destroy()  # the dead enclave's scheduler workers go with it
            started = time.perf_counter()
            host = self._launcher(endpoint)
            launch_s = time.perf_counter() - started
            with self._lock:
                self._hosts[endpoint] = host
                self._owned.add(endpoint)
            self.router.mark_endpoint_up(endpoint)
            if self.warm_pool is not None:
                self.warm_pool.on_launch(endpoint, self._now(), cold_start_s=launch_s)
            return host, True, launch_s

    def _fleet(
        self, exclude=(), model_id: Optional[str] = None
    ) -> List[Tuple[str, Optional[SemirtHost]]]:
        """``(endpoint, bound host or None)`` over the unexcluded endpoints
        (those that serve ``model_id``, when one is named)."""
        return [
            (name, self._hosts.get(name))
            for name, served in self.router.endpoints()
            if name not in exclude and (model_id is None or model_id in served)
        ]

    def _hostless(self, exclude=(), model_id: Optional[str] = None) -> Iterator[str]:
        """The :meth:`_fleet` endpoints without a live host: never launched, or dead."""
        for name, host in self._fleet(exclude, model_id):
            if host is None or not host.enclave.alive:
                yield name

    def _note_endpoint_death(self, endpoint: str) -> None:
        self.router.mark_endpoint_down(endpoint)
        self._affinity.forget_endpoint(endpoint)
        if self.warm_pool is not None:
            self.warm_pool.on_down(endpoint, self._now())

    # -- fleet growth ---------------------------------------------------------------

    def _grow_fleet(self) -> bool:
        """Regrow an emptied fleet: one more endpoint, marked by a ``scale_out`` span."""
        try:
            endpoint = self.router.add_endpoint()[0]
        except RoutingError:
            return False  # baseline routers have a fixed layout
        with maybe_span(self.tracer, "scale_out", endpoint=endpoint):
            pass
        return True

    # -- drain / retire ------------------------------------------------------------

    def drain(self, endpoint: str) -> None:
        """Stop routing new requests to ``endpoint``; in-flight finishes."""
        self.router.begin_drain(endpoint)

    def retire(
        self, endpoint: str, timeout_s: float = 30.0, *, reason: str = "manual"
    ) -> None:
        """Drain ``endpoint``, wait for its work, and tear it down."""
        self.drain(endpoint)
        with self._idle:
            self._idle.wait_for(
                lambda: self._endpoint_pending(endpoint) == 0, timeout=timeout_s
            )
        self.router.retire_endpoint(endpoint)
        self._affinity.forget_endpoint(endpoint)
        with self._lock:
            host = self._hosts.pop(endpoint, None)
            owned = endpoint in self._owned
            self._owned.discard(endpoint)
        if self.warm_pool is not None:
            self.warm_pool.on_retire(endpoint, self._now(), reason=reason)
        if host is not None and owned:
            host.destroy()

    # -- warm-pool housekeeping ------------------------------------------------------

    def maintain(
        self, now: Optional[float] = None, retire_timeout_s: float = 5.0
    ) -> List[str]:
        """One warm-pool housekeeping pass: the janitor's sweep.

        Call it periodically (the service tier's sweeper does).  The
        janitor's nominations are retired through the ordinary
        drain-then-retire lifecycle; returns the endpoints retired.  A
        nominee that took traffic between its nomination and the drain
        is refused by the router: its drain ends, so it serves again and
        a later sweep nominates it once it is idle.  A no-op unless
        ``GatewayConfig.warm_pool`` is armed.
        """
        retired: List[str] = []
        if self.warm_pool is None:
            return retired
        if now is None:
            now = self._now()
        for victim in self.warm_pool.sweep(now):
            with self._lock:
                owned = victim in self._owned
            if not owned:
                continue  # attached/shared hosts are never ours to kill
            try:
                self.retire(victim, timeout_s=retire_timeout_s, reason="janitor")
            except RoutingError:
                # a draining endpoint takes no traffic but still counts
                # toward the min_warm floor: let it serve again
                self.router.end_drain(victim)
                continue
            retired.append(victim)
        return retired

    def warm_stats(self) -> Optional[dict]:
        """The warm pool's stats section (``None`` when not armed)."""
        if self.warm_pool is None:
            return None
        return self.warm_pool.stats(self._now())

    def _endpoint_pending(self, endpoint: str) -> int:
        state = self.router.state(endpoint)
        return state.pending if state is not None else 0

    def invalidate_keys(
        self, uid: Optional[str] = None, model_id: Optional[str] = None
    ) -> int:
        """Broadcast a key-memo invalidation to every live endpoint.

        The fleet face of ``EC_INVALIDATE_KEYS``: after an owner
        revokes a grant (or a user re-grants a fresh request key),
        calling this drops the matching memoised provisioning verdicts
        on every live host, so no enclave keeps serving the pair from
        its memo.  Returns how many entries were dropped fleet-wide.
        Every endpoint is tried even when one fails; those whose memo
        may still hold the pair are then reported in one
        :class:`~repro.errors.SeSeMIError` (``.unreached``, ``.dropped``).
        A host that died has no memo left to reach and is not a failure.
        """
        dropped = 0
        unreached = {}
        for endpoint, host in self.hosts().items():
            try:
                dropped += host.invalidate_keys(uid, model_id)
            except Exception as exc:  # noqa: BLE001 - reported after the sweep
                if host.enclave.alive:
                    unreached[endpoint] = exc
        if unreached:
            error = SeSeMIError(
                f"key invalidation did not reach {sorted(unreached)} "
                f"({dropped} entries dropped elsewhere)"
            )
            #: endpoint -> what its push raised, and the partial count
            error.unreached, error.dropped = unreached, dropped
            raise error from next(iter(unreached.values()))
        return dropped

    def close(self) -> None:
        """Tear down every owned host, dead ones' workers included;
        attached hosts keep running."""
        with self._lock:
            hosts = dict(self._hosts)
            owned = set(self._owned)
            self._hosts.clear()
            self._owned.clear()
        for endpoint, host in hosts.items():
            if endpoint in owned:
                host.destroy()

    def __enter__(self) -> "InferenceGateway":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class _Routed:
    """What the gateway adds to a derived handle: the route and the settle."""

    def __init__(
        self,
        gateway: InferenceGateway,
        inner,
        endpoint: str,
        model_id: str,
        decision: RouteDecision,
        host: SemirtHost,
    ) -> None:
        super().__init__(inner)
        self._gateway = gateway
        self.endpoint = endpoint
        self.model_id = model_id
        self.decision = decision
        self.host = host

    def _on_settle(self, error: Optional[BaseException], cancelled: bool) -> None:
        self._gateway._settle(self, error, cancelled)


class GatewaySubmission(_Routed, DerivedHandle):
    """An admitted async request: poll, wait, or cancel.

    Returned by :meth:`InferenceGateway.submit`.  A
    :class:`~repro.core.futures.DerivedHandle` over the endpoint's
    :class:`~repro.core.semirt.InferenceFuture` (``inner``) carrying the
    routing outcome (``endpoint``, ``decision``, ``host``); whichever of
    :meth:`result` / :meth:`cancel` first observes the outcome settles
    the gateway's routing state (in-flight count, router completion,
    endpoint-death marking) **exactly once** -- so the async
    surface keeps the same fleet accounting as the blocking one.
    """


class GatewayStream(_Routed, DerivedStream):
    """An admitted autoregressive stream: iterate frames, wait, or cancel.

    Returned by :meth:`InferenceGateway.open_stream`.  A
    :class:`~repro.core.futures.DerivedStream` over the endpoint's
    :class:`~repro.core.semirt.InferenceStream` with the same routing
    attributes and the same exactly-once settle as
    :class:`GatewaySubmission`: iterator exhaustion, :meth:`result` or
    :meth:`cancel`, whichever resolves the stream first, marks the
    dispatch complete (or the endpoint dead).  ``result()`` blocks for
    the full sealed frame sequence.
    """


__all__ = [
    "GatewayConfig",
    "GatewayReply",
    "GatewayStream",
    "GatewaySubmission",
    "HostLauncher",
    "InferenceGateway",
    "RouteDecision",
]
