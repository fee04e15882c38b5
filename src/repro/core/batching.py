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

In the simulation a batch of *n* hot requests executes with sub-linear
cost ``exec * (alpha + (1 - alpha) * n)`` -- the ``alpha`` fraction is
the per-invocation overhead (enclave transition, framework entry) that
one batched call pays once.  See ``docs/batching.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.core.costs import CostModel
from repro.core.simbridge import SemirtSimActor, ServableModel
from repro.core.stages import InvocationKind, Stage
from repro.errors import ConfigError
from repro.serverless.action import Request
from repro.serverless.container import ContainerContext
from repro.sim.core import Event


@dataclass(frozen=True)
class BatchPolicy:
    """Hot-path micro-batching knobs, shared by both twins.

    Like :class:`~repro.core.semirt.SchedulerConfig`, this is **host
    policy, not enclave identity**: it is excluded from
    ``settings()``/MRENCLAVE, so tuning the batch window never changes
    ``E_S``.  The *security* rule -- a batch only ever holds requests for
    one ``<uid, M_oid>`` pair -- is enforced inside the enclave
    regardless of these knobs.

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
        at large batch sizes.  Only the simulation twin reads it: the
        live scheduler's batch costs whatever its ECALL costs.
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


def submit_window(policy: Optional[BatchPolicy], tcs_count: int) -> int:
    """In-flight requests a pipelining session keeps against one host.

    The policy's :meth:`~BatchPolicy.feed_window` when the host's batch
    accumulator is armed, else one request per TCS.  The one rule
    behind both doors' ``infer_many`` window: the gateway reads it for
    the host that admitted the first request, and the service tier
    advertises it as ``/v1/meta``'s ``feed_window``.
    """
    return policy.feed_window(tcs_count) if policy is not None else tcs_count


@dataclass
class _Batch:
    """One in-flight batch: the leader plus any followers that joined."""

    pair: Tuple[str, str]
    #: fires with per-request exec seconds once the leader has executed
    done_event: Event
    size: int = 1
    closed: bool = False


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
        self._open_batch: Optional[_Batch] = None
        self.batches_executed = 0
        self.batched_requests = 0

    @property
    def max_batch(self) -> int:
        return self.policy.max_batch

    def batched_exec_s(self, servable: ServableModel, size: int,
                       epc_slowdown: float = 1.0) -> float:
        """Execution time of one batch of ``size`` requests."""
        single = self.cost.model_exec_s(
            servable.profile, servable.framework, epc_slowdown
        )
        return self.policy.batch_cost_s(single, size)

    def handle(self, ctx: ContainerContext, request: Request):
        """Serve one request, riding or leading a hot-path batch when possible."""
        # Only hot-path requests are batchable; anything that must touch
        # keys, the model, or the runtime takes the ordinary path.
        if self._plan(request).kind != InvocationKind.HOT:
            return (yield from super().handle(ctx, request))
        servable = self._servable(request.model_id)
        stages: Dict[str, float] = {}
        yield from self._charge(ctx, stages, servable, Stage.REQUEST_DECRYPT)
        pair = (request.model_id, request.user_id)
        batch = self._open_batch
        self.batched_requests += 1
        if (batch is not None and not batch.closed and batch.pair == pair
                and batch.size < self.max_batch):
            batch.size += 1
            seconds = yield batch.done_event
        else:
            batch = self._open_batch = _Batch(pair, ctx.sim.event())
            if self.policy.batch_window_s > 0 and self.max_batch > 1:
                yield ctx.sim.timeout(self.policy.batch_window_s)
            batch.closed = True
            if self._open_batch is batch:
                self._open_batch = None
            seconds = yield from self._hold(
                ctx, ctx.node.cores,
                lambda: self.batched_exec_s(
                    servable, batch.size, ctx.node.sgx.epc.access_slowdown()
                ),
            )
            self.batches_executed += 1
            batch.done_event.succeed(seconds)
        # The batch's execution is every member's charge, so it has no
        # span: a follower's wait is longer than the seconds it is charged.
        stages[Stage.MODEL_INFERENCE.value] = seconds
        yield from self._charge(ctx, stages, servable, Stage.RESULT_ENCRYPT)
        self.state.note_served(request.model_id, request.user_id)
        response = {"model": request.model_id, "batched": True}
        return response, InvocationKind.HOT.value, stages
