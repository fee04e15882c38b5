"""Adaptive request batching (extension; future work in the paper's line).

The serverless-inference systems the paper compares against (MArk,
BATCH) amortise per-request framework overhead by executing several
requests as one batched inference.  SeSeMI can do the same *within its
security rules*: requests are only batched when they take the hot path
for the same ``<uid, M_oid>`` pair, so a batch never mixes users or
models inside the enclave.

Both twins consume one :class:`BatchPolicy`:

- :class:`BatchingSemirtActor` (this module) batches inside the
  discrete-event simulation;
- the live TCS-slot scheduler (:class:`~repro.core.semirt.SemirtHost`
  with ``SchedulerConfig(batch=...)``) batches real encrypted requests
  through the ticketed ``EC_MODEL_INF_BATCH`` ECALL.

The cost model is shared too: a batch of *n* hot requests executes with
sub-linear cost ``exec * (alpha + (1 - alpha) * n)`` -- the ``alpha``
fraction is the per-invocation overhead (enclave transition, framework
entry) that one batched call pays once.  See ``docs/batching.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.core.costs import CostModel
from repro.core.simbridge import SemirtSimActor, ServableModel
from repro.core.stages import InvocationKind, Stage, plan_invocation
from repro.errors import ConfigError
from repro.serverless.action import Request
from repro.serverless.container import ContainerContext
from repro.sim.core import Event


@dataclass(frozen=True)
class BatchPolicy:
    """Hot-path micro-batching knobs, shared by both twins.

    Like :class:`~repro.core.semirt.SchedulerConfig`, this is **host
    policy, not enclave identity**: it is excluded from
    ``settings()``/MRENCLAVE (same rule as ``paced_service_s``), so
    tuning the batch window never changes ``E_S``.  The *security* rule
    -- a batch only ever holds requests for one ``<uid, M_oid>`` pair --
    is enforced inside the enclave regardless of these knobs.

    ``batch_window_s``
        How long the batch leader waits for followers before executing.
    ``max_batch``
        Upper bound on requests per batch.  Every batched request
        occupies one TCS slot (sim) / one execution context (live), so
        the effective bound is :meth:`clamped` to the TCS count.
    ``alpha``
        Fixed fraction of the execution cost (the non-amortisable part):
        a batch of *n* costs ``exec * (alpha + (1 - alpha) * n)``.
        ``alpha=0.6`` means ~40% of per-request compute amortises away
        at large batch sizes.
    """

    batch_window_s: float = 0.05
    max_batch: int = 8
    alpha: float = 0.6

    def __post_init__(self) -> None:
        if self.batch_window_s < 0:
            raise ConfigError("batch window must be non-negative")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("alpha must be in (0, 1]")
        if self.max_batch < 1:
            raise ConfigError("max_batch must be >= 1")

    def clamped(self, tcs_count: int) -> "BatchPolicy":
        """This policy with ``max_batch`` bounded by ``tcs_count``.

        Each batched request holds one TCS slot (simulation) or one
        enclave execution context (live scheduler), both of which the
        build caps at ``tcs_count`` -- a batch larger than that could
        never execute.  The clamp is explicit policy surgery here, not
        a silent shrink inside an actor constructor.
        """
        if tcs_count < 1:
            raise ConfigError("tcs_count must be >= 1")
        if self.max_batch <= tcs_count:
            return self
        return replace(self, max_batch=tcs_count)

    def batch_cost_s(self, single_s: float, size: int) -> float:
        """Execution time of one batch of ``size`` requests."""
        return single_s * (self.alpha + (1.0 - self.alpha) * size)

    def amortised_s(self, single_s: float, size: int) -> float:
        """Seconds saved vs ``size`` unbatched executions of ``single_s``."""
        return single_s * self.alpha * (size - 1)

    def feed_window(self, tcs_count: int) -> int:
        """In-flight requests a submitter needs to keep the accumulator fed.

        A batch leader only finds followers when they are already queued
        behind it, so a pipelining submitter (``UserSession.infer_many``,
        the service tier's window) must keep at least *two* full batches
        outstanding: one executing, one forming.  Derived from the
        policy itself (clamped to ``tcs_count``) so tuning ``max_batch``
        can never silently starve the accumulator.
        """
        return max(tcs_count, 2 * self.clamped(tcs_count).max_batch)


@dataclass
class _Batch:
    """One in-flight batch: the leader plus any followers that joined."""

    model_id: str
    user_id: str
    size: int = 1
    closed: bool = False
    #: fires with per-request exec seconds once the leader has executed
    done_event: Optional[Event] = None


class BatchingSemirtActor(SemirtSimActor):
    """SeMIRT with hot-path request batching (simulation twin).

    The batching knobs arrive as one :class:`BatchPolicy`; the policy's
    ``max_batch`` is :meth:`~BatchPolicy.clamped` to ``tcs_count``
    because each batched request still occupies its own TCS slot.
    """

    def __init__(
        self,
        models: Dict[str, ServableModel],
        cost: CostModel,
        tcs_count: int = 8,
        policy: Optional[BatchPolicy] = None,
    ) -> None:
        super().__init__(models, cost, tcs_count=tcs_count)
        self.policy = (policy or BatchPolicy()).clamped(tcs_count)
        assert self.policy.max_batch <= tcs_count
        self._open_batch: Optional[_Batch] = None
        self.batches_executed = 0
        self.batched_requests = 0

    # flat read-only views over the policy
    @property
    def batch_window_s(self) -> float:
        return self.policy.batch_window_s

    @property
    def max_batch(self) -> int:
        return self.policy.max_batch

    @property
    def batch_alpha(self) -> float:
        return self.policy.alpha

    def batched_exec_s(self, servable: ServableModel, size: int,
                       epc_slowdown: float = 1.0) -> float:
        """Execution time of one batch of ``size`` requests."""
        single = self.cost.model_exec_s(
            servable.profile, servable.framework, epc_slowdown
        )
        return self.policy.batch_cost_s(single, size)

    def handle(self, ctx: ContainerContext, request: Request):
        """Serve one request, riding or leading a hot-path batch when possible."""
        plan = plan_invocation(
            self.state, request.model_id, request.user_id,
            key_cache_enabled=self.key_cache, reuse_runtime=self.reuse_runtime,
        )
        # Only hot-path requests are batchable; anything that must touch
        # keys, the model, or the runtime takes the ordinary path.
        if plan.kind != InvocationKind.HOT:
            result = yield from super().handle(ctx, request)
            return result
        servable = self._servable(request.model_id)
        stages: Dict[str, float] = {}
        stages[Stage.REQUEST_DECRYPT.value] = yield from self._stage_fixed(
            ctx, self.cost.request_decrypt_s
        )
        batch = self._open_batch
        joinable = (
            batch is not None
            and not batch.closed
            and batch.model_id == request.model_id
            and batch.user_id == request.user_id
            and batch.size < self.max_batch
        )
        if joinable:
            batch.size += 1
            self.batched_requests += 1
            per_request = yield batch.done_event
            stages[Stage.MODEL_INFERENCE.value] = per_request
        else:
            batch = _Batch(
                model_id=request.model_id,
                user_id=request.user_id,
                done_event=ctx.sim.event(),
            )
            self._open_batch = batch
            self.batched_requests += 1
            if self.batch_window_s > 0 and self.max_batch > 1:
                yield ctx.sim.timeout(self.batch_window_s)
            batch.closed = True
            if self._open_batch is batch:
                self._open_batch = None
            start = ctx.sim.now
            claim = ctx.node.cores.request()
            yield claim
            try:
                slowdown = ctx.node.sgx.epc.access_slowdown()
                yield ctx.sim.timeout(
                    self.batched_exec_s(servable, batch.size, slowdown)
                )
            finally:
                ctx.node.cores.release(claim)
            self.batches_executed += 1
            elapsed = ctx.sim.now - start
            stages[Stage.MODEL_INFERENCE.value] = elapsed
            batch.done_event.succeed(elapsed)
        stages[Stage.RESULT_ENCRYPT.value] = yield from self._stage_fixed(
            ctx, self.cost.result_encrypt_s
        )
        self.state.note_served(request.model_id, request.user_id)
        return (
            {"model": request.model_id, "batched": True},
            InvocationKind.HOT.value,
            stages,
        )


def batching_semirt_factory(
    models: Dict[str, ServableModel],
    cost: CostModel,
    tcs_count: int = 8,
    policy: Optional[BatchPolicy] = None,
):
    """Factory for deploying :class:`BatchingSemirtActor` containers."""
    resolved = policy or BatchPolicy()
    return lambda: BatchingSemirtActor(models, cost, tcs_count, resolved)
