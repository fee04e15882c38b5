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
  single-endpoint degenerate case :class:`~repro.core.deployment.UserSession`
  is built on;
- sustained queue pressure can **scale out** the fleet
  (:class:`~repro.routing.ScaleOutPolicy`), and endpoints can be
  drained then retired;
- optional per-endpoint :class:`~repro.faults.resilience.CircuitBreaker`
  guards convert a persistently failing endpoint into a routing
  exclusion instead of an error storm.

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
excluded, saturated, or dead -- batching is a throughput hint, never a
correctness constraint (``docs/batching.md``).

Arming ``GatewayConfig.warm_pool`` puts a
:class:`~repro.warmpool.manager.WarmPoolManager` in charge of the fleet's
temperature: warm-endpoint reuse follows the configured strategy (a
one-shot hint, same discipline as batch affinity), every dispatch is
classified cold/warm/hot, measured cold-start latency lands on the
:class:`RouteDecision` and the ``route`` span, and periodic
:meth:`InferenceGateway.maintain` calls run the scale-to-zero janitor
and the predictive pre-warmer (``docs/warmpool.md``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

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
from repro.faults.resilience import BreakerPolicy, CircuitBreaker
from repro.obs.tracer import Tracer, maybe_span
from repro.routing import (
    BatchAffinity,
    FnPackerRouter,
    FnPool,
    PressureTracker,
    Router,
    ScaleOutPolicy,
    make_router,
)
from repro.warmpool.manager import WarmPoolConfig, WarmPoolManager

#: a host launcher: endpoint name -> live SemirtHost
HostLauncher = Callable[[str], SemirtHost]


@dataclass(frozen=True)
class GatewayConfig:
    """Behaviour knobs for one :class:`InferenceGateway`.

    ``redispatch_on_crash`` controls whether an endpoint failure is
    absorbed by rerouting (the fleet case) or surfaced to the caller
    (the degenerate single-endpoint session, where the caller's own
    resilience layer owns the retry decision).  ``breaker`` arms one
    :class:`CircuitBreaker` per endpoint; ``scale_out`` arms fleet
    growth under sustained backpressure.

    ``warm_pool`` arms a :class:`~repro.warmpool.manager.WarmPoolManager`: warm
    endpoint reuse becomes strategy-driven, idle endpoints are retired
    by the janitor through :meth:`InferenceGateway.maintain`, and when
    ``warm_pool.scale_out`` is set the manager owns the pressure
    tracker (reactive growth joins the warm-pool decision log) --
    leave ``scale_out`` here ``None`` in that case.
    """

    strategy: str = "fnpacker"
    idle_interval_s: float = 10.0
    slots_per_endpoint: int = 1
    scale_out: Optional[ScaleOutPolicy] = None
    breaker: Optional[BreakerPolicy] = None
    redispatch_on_crash: bool = True
    max_redispatch: int = 2
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
        self.router = router if router is not None else make_router(
            self.config.strategy,
            pool,
            idle_interval_s=self.config.idle_interval_s,
            slots_per_endpoint=self.config.slots_per_endpoint,
        )
        self.tracer = tracer
        self._clock = clock if clock is not None else (
            tracer.clock if tracer is not None else None
        )
        self._launcher = launcher
        self._hosts: Dict[str, SemirtHost] = {}
        self._owned: Set[str] = set()
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._pressure = (
            PressureTracker(self.config.scale_out)
            if self.config.scale_out is not None
            else None
        )
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
        known = {name for name, _ in self.router.endpoints()}
        if endpoint not in known:
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
            for host in self._hosts.values():
                return host
            return None

    @property
    def endpoint_count(self) -> int:
        return len(self.router.endpoints())

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock.now()
        return 0.0

    def _breaker(self, endpoint: str) -> Optional[CircuitBreaker]:
        if self.config.breaker is None:
            return None
        breaker = self._breakers.get(endpoint)
        if breaker is None:
            breaker = CircuitBreaker(self.config.breaker, clock=self._clock)
            self._breakers[endpoint] = breaker
        return breaker

    def _observe_pressure(self, saw_pressure: bool) -> bool:
        """One backpressure observation; ``True`` means grow the fleet.

        When the warm pool is armed with ``scale_out`` the manager owns
        the tracker (reactive growth joins the warm-pool decision log);
        otherwise the gateway's own tracker decides.
        """
        if self.warm_pool is not None and self.warm_pool.reactive is not None:
            return self.warm_pool.on_pressure(saw_pressure, self.endpoint_count)
        if self._pressure is not None:
            return self._pressure.observe(saw_pressure, self.endpoint_count)
        return False

    def _warm_suggestion(self, model_id: str, exclude: Set[str]) -> Optional[str]:
        """The warm-pool strategy's reuse pick, validated for routing.

        The suggestion must still be a live, idle, unexcluded endpoint
        whose exclusivity pin (if any) matches ``model_id`` -- the warm
        pool's view can lag the router's by a dispatch, so the router
        state is the authority.
        """
        if self.warm_pool is None:
            return None
        suggestion = self.warm_pool.suggest(model_id, self._now())
        if suggestion is None or suggestion in exclude:
            return None
        states = getattr(self.router, "_endpoints", None)
        if states is None or suggestion not in states:
            return None
        state = states[suggestion]
        if not state.available or state.pending > 0:
            return None
        if state.exclusive_for not in (None, model_id):
            return None
        host = self.host(suggestion)
        if host is None or not host.enclave.alive:
            return None  # nothing warm to reuse; let the router decide
        return suggestion

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
        walk, then the wait (inside the ``route`` span).  An endpoint
        that dies *mid-serve* is excluded and the request re-admitted,
        up to ``max_redispatch`` times across the whole dispatch.

        Raises whatever the serving attempt raised once rerouting and
        redispatching are exhausted; :class:`QueueFull` means the whole
        fleet is saturated (backpressure -- the caller should shed or
        slow down, not retry immediately).
        """
        exclude: Set[str] = set()
        decision = RouteDecision(endpoint="")
        while True:
            handle = self._admit(
                GatewaySubmission, enc_request, user_id, model_id, exclude, decision
            )
            try:
                with self._route_span(handle, "dispatch"):
                    output = handle.result(timeout_s)
            except DeadlineExceeded as exc:
                # the caller gave up on a request nobody else holds: its
                # slot is released and the endpoint charged a failure
                handle._settle_once(exc)
                raise
            except (EnclaveError, TransportError):
                if (
                    not self.config.redispatch_on_crash
                    or decision.redispatches >= self.config.max_redispatch
                ):
                    raise
                decision.redispatches += 1
                exclude.add(handle.endpoint)
                continue
            return GatewayReply(output=output, decision=decision, host=handle.host)

    def submit(
        self, enc_request: bytes, user_id: str, model_id: str
    ) -> "GatewaySubmission":
        """Admit one encrypted request and return a polling handle.

        The async face of :meth:`dispatch`: the admission-time routing
        walk (affinity hint, breaker exclusion, ``QueueFull`` reroute,
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
        handle = self._admit(
            GatewaySubmission, enc_request, user_id, model_id,
            set(), RouteDecision(endpoint=""),
        )
        with self._route_span(handle, "admit"):
            pass  # admission-time decision span; serving runs async
        return handle

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
        handle = self._admit(
            GatewayStream, enc_request, user_id, model_id,
            set(), RouteDecision(endpoint=""),
        )
        with self._route_span(handle, "stream"):
            pass
        return handle

    def _route_span(self, handle: "GatewaySubmission", phase: str):
        """The ``route`` span of one admission: the decision as attributes."""
        decision = handle.decision
        return maybe_span(
            self.tracer,
            "route",
            endpoint=handle.endpoint,
            model_id=handle.model_id,
            exclusive=decision.exclusive,
            reroutes=decision.reroutes,
            redispatches=decision.redispatches,
            cold=decision.cold,
            cold_start_s=decision.cold_start_s,
            temperature=decision.temperature,
            batch_affinity=decision.batch_affinity,
            warm_hint=decision.warm_hint,
            phase=phase,
        )

    def _admit(
        self,
        handle_type,
        enc_request: bytes,
        user_id: str,
        model_id: str,
        exclude: Set[str],
        decision: RouteDecision,
    ):
        """The one admission-time routing walk.

        Picks an endpoint (batch-affinity hint, warm-pool hint, then the
        router), launches its host if needed, enqueues the request there
        (``handle_type`` selects ``host.submit`` vs ``host.open_stream``)
        and returns the ``handle_type`` over the endpoint's handle.
        ``exclude`` and ``decision`` are the caller's: :meth:`dispatch`
        shares them across re-admissions so a crashed endpoint stays
        excluded and the redispatch budget is global.

        Backpressure is observed **once per admission** -- ``True`` when
        any endpoint's queue was full on the way, ``False`` otherwise --
        so sustained pressure scales the fleet out and an idle admission
        resets the count.  Raises :class:`QueueFull` when the whole
        fleet is saturated.
        """
        saw_pressure = False
        pressure_observed = False
        warm_hint_tried = False
        grew_for_empty = False
        last_queue_full: Optional[QueueFull] = None
        #: one shot at the batch-affinity hint per admission -- if the
        #: remembered endpoint cannot take the request, the ordinary
        #: router decides and the hint is not retried
        affinity_hint = self._affinity.lookup(user_id, model_id)
        # Bounded walk: every iteration either excludes an endpoint,
        # consumes a redispatch, grows the fleet once, or returns.
        for _ in range(4 * (self.config.max_redispatch + self.pool.endpoint_count + 2)):
            decision.batch_affinity = False
            decision.warm_hint = False
            endpoint = None
            if affinity_hint is not None:
                hinted, affinity_hint = affinity_hint, None
                if hinted not in exclude and any(
                    name == hinted for name, _ in self.router.endpoints()
                ):
                    endpoint = hinted
                    decision.batch_affinity = True
            if endpoint is None and not warm_hint_tried:
                # one shot at the warm-pool strategy's pick, same
                # discipline as the batch-affinity hint
                warm_hint_tried = True
                warm = self._warm_suggestion(model_id, exclude)
                if warm is not None:
                    endpoint = warm
                    decision.warm_hint = True
            try:
                if endpoint is None:
                    endpoint = self.router.route(
                        model_id, self._now(), frozenset(exclude)
                    )
            except RoutingError:
                if last_queue_full is not None:
                    # the whole fleet is saturated: spawn only under
                    # *sustained* backpressure.
                    if not pressure_observed:
                        pressure_observed = True
                        if self._observe_pressure(True) and self._grow_fleet():
                            last_queue_full = None
                            continue
                    raise last_queue_full
                endpoint = self._relaunch_candidate(exclude)
                if endpoint is None:
                    # a janitor-emptied fleet (scale-to-zero) regrows on
                    # demand: the cold start is the request's price.
                    if (
                        self.warm_pool is not None
                        and not grew_for_empty
                        and not exclude
                        and self._grow_fleet()
                    ):
                        grew_for_empty = True
                        continue
                    raise
            breaker = self._breaker(endpoint)
            if breaker is not None and breaker.state == "open":
                exclude.add(endpoint)
                decision.reroutes += 1
                continue
            try:
                host, cold, launch_s = self._ensure_host(endpoint, exclude)
            except _Reroute:
                decision.reroutes += 1
                continue
            decision.endpoint = endpoint
            decision.cold = cold
            decision.cold_start_s = launch_s
            try:
                if handle_type is GatewayStream:
                    inner = host.open_stream(enc_request, user_id, model_id)
                else:
                    inner = host.submit(enc_request, user_id, model_id)
            except QueueFull as exc:
                saw_pressure = True
                last_queue_full = exc
                exclude.add(endpoint)
                decision.reroutes += 1
                continue
            except (EnclaveError, TransportError):
                # the endpoint died at admission (e.g. an injected
                # crash): nothing was enqueued, so only health and
                # breaker state change.
                self._note_endpoint_death(endpoint, breaker)
                if (
                    self.config.redispatch_on_crash
                    and decision.redispatches < self.config.max_redispatch
                ):
                    decision.redispatches += 1
                    exclude.add(endpoint)
                    continue
                raise
            now = self._now()
            self.router.on_dispatch(endpoint, model_id, now)
            if self.warm_pool is not None:
                decision.temperature = self.warm_pool.on_dispatch(
                    endpoint, model_id, now, launched=cold
                )
            with self._lock:
                self._in_flight += 1
            decision.exclusive = self._is_exclusive(endpoint, model_id)
            if getattr(host, "batch_policy", None) is not None:
                # only accumulator-armed endpoints benefit from keeping
                # the pair's traffic together.  Remember at *admission*:
                # followers submitted while this request is still queued
                # are exactly the ones the accumulator can merge with it
                # -- and for streams, the ones its continuous batcher
                # can absorb mid-decode
                self._affinity.remember(user_id, model_id, endpoint)
            if not pressure_observed and self._observe_pressure(saw_pressure):
                self._grow_fleet()
            return handle_type(self, inner, endpoint, model_id, decision, host)
        raise RoutingError(
            f"admission for {model_id!r} exhausted rerouting in pool "
            f"{self.pool.name!r}"
        )

    def _settle(
        self,
        handle: "GatewaySubmission",
        error: Optional[BaseException],
        cancelled: bool,
    ) -> None:
        """Close the books on one admitted request (runs exactly once).

        The settle hook of every gateway handle: releases the in-flight
        slot, tells the router (and warm pool) how the dispatch ended,
        and charges the endpoint's breaker -- or marks the endpoint dead
        when its enclave did not survive.  A cancel is not an endpoint
        failure: the router sees a completion and the breaker is left
        untouched.
        """
        ok = cancelled or error is None
        self._finish(handle.endpoint, handle.model_id, ok=ok)
        if cancelled:
            return
        breaker = self._breaker(handle.endpoint)
        if ok:
            if breaker is not None:
                breaker.on_success()
        elif not handle.host.enclave.alive:
            self._note_endpoint_death(handle.endpoint, breaker)
        elif breaker is not None:
            breaker.on_failure()

    def _finish(self, endpoint: str, model_id: str, ok: bool) -> None:
        now = self._now()
        if ok:
            self.router.on_complete(endpoint, model_id, now)
            if self.warm_pool is not None:
                self.warm_pool.on_complete(endpoint, model_id, now)
        else:
            self.router.on_failure(endpoint, model_id, now)
            if self.warm_pool is not None:
                self.warm_pool.on_failure(endpoint, model_id, now)
        with self._lock:
            self._in_flight -= 1
            self._idle.notify_all()

    def _is_exclusive(self, endpoint: str, model_id: str) -> bool:
        if isinstance(self.router, FnPackerRouter):
            return self.router.exclusive_assignments().get(endpoint) == model_id
        return False

    # -- endpoint hosts ----------------------------------------------------------

    def ensure_host(self, endpoint: Optional[str] = None) -> Tuple[SemirtHost, bool]:
        """The live host for ``endpoint`` (default: the sole/first one).

        Launches it cold when missing or dead; returns ``(host, cold)``.
        Requests never take this path -- it exists for callers that
        pre-launch or introspect an endpoint (benchmark warm-up).
        """
        if endpoint is None:
            endpoint = self.router.endpoints()[0][0]
        with self._lock:
            host = self._hosts.get(endpoint)
        if host is not None and host.enclave.alive:
            return host, False
        host, cold, _ = self._launch(endpoint)
        return host, cold

    def _ensure_host(
        self, endpoint: str, exclude: Set[str]
    ) -> Tuple[SemirtHost, bool, float]:
        """The live host for ``endpoint``, launching it cold if needed.

        Returns ``(host, cold, launch_seconds)``.  If the bound host
        died and a healthy peer remains, the endpoint is marked down
        and the request rerouted (raises ``_Reroute``); as a last
        resort the endpoint is relaunched in place.
        """
        with self._lock:
            host = self._hosts.get(endpoint)
        if host is not None and host.enclave.alive:
            return host, False, 0.0
        if host is not None:
            # bound host is dead: prefer rerouting over an in-request
            # relaunch when any other endpoint could take the traffic.
            if self._has_alternative(endpoint, exclude):
                self._note_endpoint_death(endpoint, self._breaker(endpoint))
                exclude.add(endpoint)
                raise _Reroute()
        return self._launch(endpoint)

    def _launch(
        self, endpoint: str, prewarmed: bool = False
    ) -> Tuple[SemirtHost, bool, float]:
        with self._launch_lock:
            with self._lock:
                host = self._hosts.get(endpoint)
            if host is not None and host.enclave.alive:
                return host, False, 0.0  # a concurrent request already launched it
            started = time.perf_counter()
            host = self._launcher(endpoint)
            launch_s = time.perf_counter() - started
            with self._lock:
                self._hosts[endpoint] = host
                self._owned.add(endpoint)
            self.router.mark_endpoint_up(endpoint)
            if self.warm_pool is not None:
                self.warm_pool.on_launch(
                    endpoint,
                    self._now(),
                    cold_start_s=launch_s,
                    prewarmed=prewarmed,
                )
            return host, True, launch_s

    def _has_alternative(self, endpoint: str, exclude: Set[str]) -> bool:
        for name, _ in self.router.endpoints():
            if name != endpoint and name not in exclude:
                host = self._hosts.get(name)
                if host is None or host.enclave.alive:
                    return True
        return False

    def _relaunch_candidate(self, exclude: Set[str]) -> Optional[str]:
        """An endpoint worth relaunching when routing found none usable."""
        for name, _ in self.router.endpoints():
            if name in exclude:
                continue
            host = self._hosts.get(name)
            if host is None or not host.enclave.alive:
                return name
        return None

    def _note_endpoint_death(
        self, endpoint: str, breaker: Optional[CircuitBreaker]
    ) -> None:
        self.router.mark_endpoint_down(endpoint)
        self._affinity.forget_endpoint(endpoint)
        if self.warm_pool is not None:
            self.warm_pool.on_down(endpoint, self._now())
        if breaker is not None:
            breaker.on_failure()

    # -- scale-out ----------------------------------------------------------------

    def _grow_fleet(self) -> bool:
        try:
            endpoint, _ = self.router.add_endpoint()
        except RoutingError:
            return False  # baseline routers have a fixed layout
        if self.tracer is not None:
            with self.tracer.span("scale_out", endpoint=endpoint):
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
        if host is not None and owned and host.enclave.alive:
            host.destroy()

    # -- warm-pool housekeeping ------------------------------------------------------

    def maintain(
        self, now: Optional[float] = None, retire_timeout_s: float = 5.0
    ) -> Dict[str, List[str]]:
        """One warm-pool housekeeping pass: janitor sweep + pre-warming.

        Call it periodically (the service tier's sweeper does).  The
        janitor's nominations are retired through the ordinary
        drain-then-retire lifecycle; the pre-warmer launches ahead of
        predicted demand, growing the fleet up to the warm pool's
        ``max_endpoints`` when every known endpoint is already live.
        A no-op unless ``GatewayConfig.warm_pool`` is armed.
        """
        result: Dict[str, List[str]] = {"retired": [], "prewarmed": []}
        if self.warm_pool is None:
            return result
        if now is None:
            now = self._now()
        if self.warm_pool.sweep_due(now):
            for victim in self.warm_pool.sweep(now):
                with self._lock:
                    owned = victim in self._owned
                if not owned:
                    continue  # attached/shared hosts are never ours to kill
                try:
                    self.retire(victim, timeout_s=retire_timeout_s, reason="janitor")
                except RoutingError:
                    # traffic landed between nomination and drain; the
                    # endpoint stays draining and a later sweep retries
                    continue
                result["retired"].append(victim)
        for _ in range(self.warm_pool.prewarm_count(now)):
            endpoint = self._prewarm_target()
            if endpoint is None:
                break
            self._launch(endpoint, prewarmed=True)
            result["prewarmed"].append(endpoint)
        return result

    def _prewarm_target(self) -> Optional[str]:
        """An endpoint slot a pre-warm launch can fill, if any.

        Prefers re-warming a known endpoint without a live host; grows
        the fleet only below the warm pool's ``max_endpoints``.
        """
        for name, _ in self.router.endpoints():
            host = self.host(name)
            if host is None or not host.enclave.alive:
                return name
        if (
            self.warm_pool is not None
            and self.endpoint_count < self.warm_pool.config.max_endpoints
        ):
            try:
                endpoint, _ = self.router.add_endpoint()
            except RoutingError:
                return None
            return endpoint
        return None

    def warm_stats(self) -> Optional[dict]:
        """The warm pool's stats section (``None`` when not armed)."""
        if self.warm_pool is None:
            return None
        return self.warm_pool.stats(self._now())

    def _endpoint_pending(self, endpoint: str) -> int:
        states = getattr(self.router, "_endpoints", None)
        if states is None or endpoint not in states:
            return 0
        return states[endpoint].pending

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
        with self._lock:
            hosts = dict(self._hosts)
        dropped = 0
        unreached = {}
        for endpoint, host in hosts.items():
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
        """Tear down every owned host; attached hosts keep running."""
        with self._lock:
            hosts = dict(self._hosts)
            owned = set(self._owned)
            self._hosts.clear()
            self._owned.clear()
        for endpoint, host in hosts.items():
            if endpoint in owned and host.enclave.alive:
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
    breaker, endpoint-death marking) **exactly once** -- so the async
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


class _Reroute(Exception):
    """Internal: the chosen endpoint is unusable, pick another."""


__all__ = [
    "GatewayConfig",
    "GatewayReply",
    "GatewayStream",
    "GatewaySubmission",
    "HostLauncher",
    "InferenceGateway",
    "RouteDecision",
]
