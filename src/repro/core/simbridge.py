"""Simulation actors: SeSeMI and both baselines as container runtimes.

These are the performance twins of the functional components.  Each actor
implements the :class:`~repro.serverless.container.ActionRuntime`
interface, shares the invocation-path logic of
:mod:`repro.core.stages`, and charges virtual time from the calibrated
:class:`~repro.core.costs.CostModel`:

- :class:`SemirtSimActor` -- SeSeMI: enclave created once per container,
  keys / model / runtimes cached (cold / warm / hot paths), multiple
  requests per enclave (one per TCS);
- :class:`IsoReuseSimActor` -- the S-FaaS / Clemmys design: enclave and
  keys are reused, but the model and runtime are rebuilt per request;
- :class:`NativeSimActor` -- existing sandbox runtimes: a fresh enclave
  per invocation, full cold path every time;
- :class:`UntrustedSimActor` -- no SGX at all (Figure 9/18's comparison).

Every design charges the same Figure-4 stages through one driver,
``_SgxActorBase._charge``, which looks each stage up in one stage-to-cost
table (``stage_costs``); an actor states only which stages a request
runs, in what order, and under which lock.  The platform builds one
actor per container from a factory such as
``functools.partial(SemirtSimActor, models, cost, tcs_count=4)``.

Contention is physical, not analytic: quote generation serialises on the
node's quoting enclave, inference occupies node cores, enclave pages
commit against the node's EPC, and concurrent launches slow each other
down -- so the knees in the figures emerge from the simulation rather
than being painted in.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.core.costs import CostModel
from repro.core.stages import (
    PER_REQUEST_STAGES,
    InvocationKind,
    SemirtCacheState,
    Stage,
    plan_invocation,
)
from repro.errors import InvocationError
from repro.mlrt.zoo import ModelProfile
from repro.serverless.container import ActionRuntime, ContainerContext
from repro.serverless.action import Request
from repro.sim.resources import Resource

_actor_ids = itertools.count(1)


@dataclass(frozen=True)
class ServableModel:
    """One model an actor can serve: paper profile + framework binding."""

    profile: ModelProfile
    framework: str

    @property
    def enclave_bytes(self) -> int:
        return self.profile.enclave_bytes(self.framework)

    @property
    def buffer_bytes(self) -> int:
        return self.profile.buffer_bytes(self.framework)


class _SgxActorBase(ActionRuntime):
    """The one stage driver every simulated design charges through.

    An actor states only its own decisions -- which Figure-4 stages a
    request runs, in what order, and under which lock or batch -- and
    :meth:`_charge` does the rest: it looks each stage up in
    :attr:`stage_costs`, runs that cost generator under its ``stage:``
    span and records its virtual-time seconds.  A container that holds
    one enclave for its life (``container_enclave``) launches it at
    startup and frees its EPC pages when it is reclaimed.
    """

    #: the container launches one enclave at startup and keeps it
    container_enclave = True

    def __init__(
        self,
        models: Dict[str, ServableModel],
        cost: CostModel,
        tcs_count: int = 1,
    ) -> None:
        if not models:
            raise InvocationError("an actor needs at least one servable model")
        self.models = models
        self.cost = cost
        self.tcs_count = tcs_count
        self.actor_id = f"actor-{next(_actor_ids)}"
        self.startup_stage_seconds: Dict[str, float] = {}
        #: a KeyService channel outlives the fetch that opened it
        self._ks_session_live = False

    # -- sizing -----------------------------------------------------------------

    def enclave_total_bytes(self) -> int:
        """Enclave size: the largest servable model plus extra TCS buffers.

        The base enclave config (Appendix D) already covers the model and
        one runtime buffer; each extra TCS adds one runtime buffer.
        """
        base = max(m.enclave_bytes for m in self.models.values())
        extra = max(m.buffer_bytes for m in self.models.values())
        return base + (self.tcs_count - 1) * extra

    def _servable(self, model_id: str) -> ServableModel:
        try:
            return self.models[model_id]
        except KeyError:
            raise InvocationError(
                f"{self.actor_id} cannot serve model {model_id!r}"
            ) from None

    # -- container life ----------------------------------------------------------

    def startup(self, ctx: ContainerContext):
        """Sandbox started by the platform; a container enclave launches here."""
        if self.container_enclave:
            yield from self._charge(
                ctx, self.startup_stage_seconds, None, Stage.ENCLAVE_INIT
            )

    def shutdown(self, ctx: ContainerContext) -> None:
        """Release the container enclave's EPC pages when it is reclaimed."""
        if self.container_enclave:
            ctx.node.sgx.epc.free(self.actor_id)

    # -- the driver ---------------------------------------------------------------

    def _charge(self, ctx: ContainerContext, stages: Dict[str, float],
                servable: Optional[ServableModel], *order: Stage):
        """Run ``order``'s cost generators, each under its span; record seconds.

        The span reads the simulation clock, so its duration equals the
        virtual-time seconds the cost generator reports -- the span trees
        and the ``stage_seconds`` accounting can never drift apart.
        """
        for stage in order:
            run = self.stage_costs[stage](self, ctx, servable)
            if ctx.tracer is None or ctx.span is None:
                stages[stage.value] = yield from run
                continue
            attrs = {}
            if stage is Stage.KEY_RETRIEVAL:
                attrs["session_reused"] = self._ks_session_live
            span = ctx.tracer.start_span(
                f"stage:{stage.value}",
                parent=ctx.span,
                stage=stage.value,
                actor=self.actor_id,
                epc_slowdown=ctx.node.sgx.epc.access_slowdown(),
                **attrs,
            )
            try:
                stages[stage.value] = yield from run
            except BaseException:
                span.end(status="error")
                raise
            span.end()

    @staticmethod
    def _wait(ctx: ContainerContext, seconds: float):
        yield ctx.sim.timeout(seconds)
        return seconds

    @staticmethod
    def _hold(ctx: ContainerContext, resource, seconds: Callable[[], float]):
        """Hold one unit of ``resource`` for ``seconds()``, read once held.

        Returns the seconds from the request on, queueing included.
        """
        start = ctx.sim.now
        claim = resource.request()
        yield claim
        try:
            yield ctx.sim.timeout(seconds())
        finally:
            resource.release(claim)
        return ctx.sim.now - start

    # -- the stage costs (each yields sim events, returns seconds spent) ----------

    def _enclave_init(self, ctx: ContainerContext, servable: Optional[ServableModel]):
        """Launch an enclave: queue for a launch slot, then pay init time.

        A container enclave (``servable`` is None, at startup) holds every
        model plus the extra TCS buffers; a per-request one holds its
        model.  Returns launch-to-ready seconds (queueing included), which
        is what the per-enclave init latency of Figure 15 measures.
        """
        nbytes = self.enclave_total_bytes() if servable is None else servable.enclave_bytes
        node = ctx.node
        seconds = yield from self._hold(
            ctx, node.launch_slots, lambda: node.enclave_init_time(nbytes)
        )
        node.sgx.epc.allocate(self.actor_id, nbytes)
        return seconds

    def _key_retrieval(self, ctx: ContainerContext, servable: ServableModel):
        """KEY_PROVISIONING: full mutual RA-TLS, or one RPC on a live session.

        The first retrieval quotes (serialising on the node's quoting
        enclave) and attests both ways; once the channel to KeyService
        exists, later fetches are a single encrypted round trip.
        """
        if self._ks_session_live:
            return (yield from self._wait(ctx, self.cost.key_retrieval_session_reused_s()))
        start = ctx.sim.now
        sgx = ctx.node.sgx.profile
        yield from self._hold(ctx, ctx.node.quoting, lambda: sgx.quote_base_s)
        yield ctx.sim.timeout(self.cost.key_fetch_fixed_s + 2 * sgx.verify_s)
        return ctx.sim.now - start

    def _model_load(self, ctx: ContainerContext, servable: ServableModel):
        """Download the encrypted artifact over the shared storage link.

        The link serialises transfers, so designs that reload the model
        per request (Iso-reuse, Native) saturate it at moderate request
        rates -- the effect behind the paper's multi-node results.
        """
        return self._hold(
            ctx, ctx.node.storage_link,
            lambda: self.cost.model_load_s(servable.profile.model_bytes),
        )

    def _model_decrypt(self, ctx: ContainerContext, servable: ServableModel):
        slowdown = ctx.node.sgx.epc.access_slowdown()
        return self._wait(
            ctx, self.cost.model_decrypt_s(servable.profile.model_bytes, slowdown)
        )

    def _runtime_init(self, ctx: ContainerContext, servable: ServableModel):
        slowdown = ctx.node.sgx.epc.access_slowdown()
        return self._wait(ctx, self.cost.runtime_init_s(
            servable.profile, servable.framework, slowdown
        ))

    def _exec(self, ctx: ContainerContext, servable: ServableModel):
        """Model execution holds one node core; EPC pressure stretches it."""
        return self._hold(ctx, ctx.node.cores, lambda: self.cost.model_exec_s(
            servable.profile, servable.framework, ctx.node.sgx.epc.access_slowdown()
        ))

    def _request_decrypt(self, ctx: ContainerContext, servable: ServableModel):
        return self._wait(ctx, self.cost.request_decrypt_s)

    def _result_encrypt(self, ctx: ContainerContext, servable: ServableModel):
        return self._wait(ctx, self.cost.result_encrypt_s)

    #: the one stage-to-cost table :meth:`_charge` reads
    stage_costs = {
        Stage.ENCLAVE_INIT: _enclave_init,
        Stage.KEY_RETRIEVAL: _key_retrieval,
        Stage.MODEL_LOADING: _model_load,
        Stage.MODEL_DECRYPT: _model_decrypt,
        Stage.RUNTIME_INIT: _runtime_init,
        Stage.REQUEST_DECRYPT: _request_decrypt,
        Stage.MODEL_INFERENCE: _exec,
        Stage.RESULT_ENCRYPT: _result_encrypt,
    }


#: what a design that keeps neither model nor runtime rebuilds per request
_REBUILT_STAGES = (
    Stage.MODEL_LOADING, Stage.MODEL_DECRYPT, Stage.RUNTIME_INIT, *PER_REQUEST_STAGES
)


class SemirtSimActor(_SgxActorBase):
    """SeSeMI's SeMIRT container: cold / warm / hot invocation paths."""

    def __init__(
        self,
        models: Dict[str, ServableModel],
        cost: CostModel,
        tcs_count: int = 1,
        key_cache: bool = True,
        reuse_runtime: bool = True,
    ) -> None:
        super().__init__(models, cost, tcs_count)
        self.key_cache = key_cache
        self.reuse_runtime = reuse_runtime
        self.state = SemirtCacheState()
        #: idle per-thread runtimes available per model id
        self._idle_runtimes: Counter = Counter()
        self._switch_lock = None  # created at startup (needs the sim)

    def startup(self, ctx: ContainerContext):
        """Sandbox started by the platform; we add the enclave launch."""
        self._switch_lock = Resource(ctx.sim, 1, name=f"{self.actor_id}.switch")
        yield from super().startup(ctx)
        self.state.enclave_ready = True

    def _plan(self, request: Request):
        return plan_invocation(
            self.state, request.model_id, request.user_id,
            key_cache_enabled=self.key_cache, reuse_runtime=self.reuse_runtime,
        )

    def handle(self, ctx: ContainerContext, request: Request):
        """Serve one request along the cold/warm/hot path of Algorithm 2."""
        servable = self._servable(request.model_id)
        plan = self._plan(request)
        stages: Dict[str, float] = {}
        if plan.needs(Stage.KEY_RETRIEVAL):
            yield from self._charge(ctx, stages, servable, Stage.KEY_RETRIEVAL)
            self._ks_session_live = True
            if self.key_cache:
                self.state.key_cache = (request.model_id, request.user_id)
        # Model switch happens under a lock: one loader, others wait + reuse.
        claim = self._switch_lock.request()
        yield claim
        try:
            if self.state.loaded_model != request.model_id:
                yield from self._charge(
                    ctx, stages, servable, Stage.MODEL_LOADING, Stage.MODEL_DECRYPT
                )
                self.state.loaded_model = request.model_id
                self._idle_runtimes.clear()
        finally:
            self._switch_lock.release(claim)
        # Per-thread runtime: grab an idle one or build it.
        if self.reuse_runtime and self._idle_runtimes[request.model_id] > 0:
            self._idle_runtimes[request.model_id] -= 1
        else:
            yield from self._charge(ctx, stages, servable, Stage.RUNTIME_INIT)
        self.state.runtime_for = request.model_id
        yield from self._charge(ctx, stages, servable, *PER_REQUEST_STAGES)
        if self.reuse_runtime:
            self._idle_runtimes[request.model_id] += 1
        self.state.note_served(request.model_id, request.user_id)
        response = {"model": request.model_id, "encrypted": True}
        return response, plan.kind.value, stages


class IsoReuseSimActor(_SgxActorBase):
    """The S-FaaS/Clemmys design: enclave + keys reused, model is not."""

    def __init__(self, models: Dict[str, ServableModel], cost: CostModel) -> None:
        super().__init__(models, cost)
        self._keys_cached_for: Optional[Tuple[str, str]] = None

    def handle(self, ctx: ContainerContext, request: Request):
        """Serve one request, reloading model and runtime from scratch."""
        servable = self._servable(request.model_id)
        stages: Dict[str, float] = {}
        pair = (request.model_id, request.user_id)
        if self._keys_cached_for != pair:
            yield from self._charge(ctx, stages, servable, Stage.KEY_RETRIEVAL)
            self._keys_cached_for, self._ks_session_live = pair, True
        yield from self._charge(ctx, stages, servable, *_REBUILT_STAGES)
        return {"model": request.model_id}, InvocationKind.WARM.value, stages


class NativeSimActor(_SgxActorBase):
    """Existing serverless runtimes: a fresh enclave for every invocation.

    Each request's enclave commits its own model's pages and frees
    exactly those, so concurrent requests in one container each hold
    theirs; a fresh enclave never has a KeyService session to reuse.
    """

    container_enclave = False

    def handle(self, ctx: ContainerContext, request: Request):
        """Serve one request through the full cold path, enclave included."""
        servable = self._servable(request.model_id)
        stages: Dict[str, float] = {}
        yield from self._charge(ctx, stages, servable, Stage.ENCLAVE_INIT)
        try:
            yield from self._charge(
                ctx, stages, servable, Stage.KEY_RETRIEVAL, *_REBUILT_STAGES
            )
        finally:
            ctx.node.sgx.epc.free(self.actor_id, servable.enclave_bytes)
        return {"model": request.model_id}, InvocationKind.COLD.value, stages


class UntrustedSimActor(_SgxActorBase):
    """No TEE at all: the plaintext comparison of Figures 9, 17, 18."""

    container_enclave = False

    def __init__(
        self,
        models: Dict[str, ServableModel],
        cost: CostModel,
        cache_model: bool = True,
    ) -> None:
        super().__init__(models, cost)
        self.cache_model = cache_model
        self._loaded: Optional[str] = None

    def _plain_load(self, ctx: ContainerContext, servable: ServableModel):
        return self._wait(
            ctx, self.cost.untrusted_model_load_s(servable.profile.model_bytes)
        )

    def _plain_runtime_init(self, ctx: ContainerContext, servable: ServableModel):
        return self._wait(ctx, self.cost.untrusted_runtime_init_s(
            servable.profile, servable.framework
        ))

    def _plain_exec(self, ctx: ContainerContext, servable: ServableModel):
        """Execution holds one core; the charge includes the wait for it."""
        seconds = self.cost.untrusted_exec_s(servable.profile, servable.framework)
        return (yield from self._hold(ctx, ctx.node.cores, lambda: seconds))

    stage_costs = {
        **_SgxActorBase.stage_costs,
        Stage.MODEL_LOADING: _plain_load,
        Stage.RUNTIME_INIT: _plain_runtime_init,
        Stage.MODEL_INFERENCE: _plain_exec,
    }

    def handle(self, ctx: ContainerContext, request: Request):
        """Serve one request without any TEE protection (the plain baseline)."""
        servable = self._servable(request.model_id)
        stages: Dict[str, float] = {}
        was_cached = self.cache_model and self._loaded == request.model_id
        if not was_cached:
            yield from self._charge(
                ctx, stages, servable, Stage.MODEL_LOADING, Stage.RUNTIME_INIT
            )
            self._loaded = request.model_id
        yield from self._charge(ctx, stages, servable, Stage.MODEL_INFERENCE)
        kind = InvocationKind.HOT if was_cached else InvocationKind.WARM
        return {"model": request.model_id}, kind.value, stages


def servable_map(
    entries: Iterable[Tuple[str, ModelProfile, str]]
) -> Dict[str, ServableModel]:
    """Build the servable-model map from ``(model_id, profile, framework)``."""
    return {
        model_id: ServableModel(profile=profile, framework=framework)
        for model_id, profile, framework in entries
    }
