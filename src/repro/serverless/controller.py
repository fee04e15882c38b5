"""The serverless controller: scheduling, cold starts, keep-alive.

Reproduces the OpenWhisk behaviours the evaluation depends on:

- requests pass through a serial controller/proxy path (a fixed
  per-request overhead that bounds single-node throughput);
- warm containers with a free concurrency slot are preferred; otherwise a
  new container cold-starts on a node chosen by memory availability, with
  a home-node preference ("OpenWhisk ... preferably launches instances of
  a function on the same machine", Section VI-C);
- when no node can fit the container budget the request queues FIFO;
- idle containers are reclaimed after a keep-alive timeout (3 minutes in
  Table V), releasing their memory.

Which container is reused and when an idle one is reclaimed is not
decided here: each deployment has a
:class:`~repro.warmpool.manager.WarmPoolManager` (the live gateway's warm
pool), configured by ``PlatformConfig.warm_pool`` -- OpenWhisk's is
most-recently-used reuse and a 180 s keep-alive.  The controller reports
launches, dispatches, completions and teardowns to it, reuses what it
suggests, and sweeps at each idle container's exact expiry.

The controller also records a memory-reservation timeline, which is what
the paper integrates into GB-seconds for the cost results (Figure 14).
"""

from __future__ import annotations

import itertools
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer

from repro.errors import PlatformError
from repro.serverless.action import ActionSpec, InvocationResult, Request
from repro.serverless.container import ActionRuntime, Container, ContainerContext
from repro.serverless.invoker import Invoker
from repro.serverless.telemetry import MetricsRegistry
from repro.sim.core import Event, Simulation
from repro.sim.resources import Resource
from repro.warmpool.manager import WarmPoolConfig, WarmPoolManager

RuntimeFactory = Callable[[], ActionRuntime]


@dataclass(frozen=True)
class PlatformConfig:
    """Tunable platform parameters (paper defaults from Table V)."""

    sandbox_init_s: float = 2.5       # pull (cached) + start one SGX sandbox
    #: OpenWhisk's keep-alive: reuse the most recently used container,
    #: reclaim one unused for 3 minutes
    warm_pool: WarmPoolConfig = WarmPoolConfig(
        strategy="mru", keep_alive_s=180.0, min_warm=0
    )
    controller_overhead_s: float = 0.0215  # serial proxy work per request


@dataclass
class _Deployment:
    spec: ActionSpec
    factory: RuntimeFactory
    warm_pool: WarmPoolManager
    #: live containers by id, in launch order
    containers: Dict[str, Container] = field(default_factory=dict)
    pending: Deque[Tuple[Request, Event]] = field(default_factory=deque)


class Controller:
    """Schedules requests over a set of invoker nodes."""

    def __init__(
        self,
        sim: Simulation,
        nodes: List[Invoker],
        config: Optional[PlatformConfig] = None,
        metrics: Optional["MetricsRegistry"] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        if not nodes:
            raise PlatformError("a platform needs at least one invoker node")
        self.sim = sim
        self.nodes = nodes
        self.config = config if config is not None else PlatformConfig()
        self.tracer = tracer
        self._deployments: Dict[str, _Deployment] = {}
        self._overhead = Resource(sim, capacity=1, name="controller")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._memory = self.metrics.time_series("memory.reserved.bytes")
        self._memory.record(0.0, 0)
        self.cold_starts = 0
        self.completed = 0
        self._active_containers = 0
        self._container_ids = itertools.count(1)

    @property
    def memory_timeline(self) -> List[Tuple[float, int]]:
        """``(time, reserved_bytes)`` samples; one per reservation change."""
        return self._memory.samples

    # -- deployment -----------------------------------------------------------

    def deploy(self, spec: ActionSpec, factory: RuntimeFactory) -> None:
        """Register an action with the platform."""
        if spec.name in self._deployments:
            raise PlatformError(f"action {spec.name!r} already deployed")
        self._deployments[spec.name] = _Deployment(
            spec=spec, factory=factory, warm_pool=WarmPoolManager(self.config.warm_pool)
        )

    def deployment(self, name: str) -> _Deployment:
        """Look up a deployed action (raises for unknown names)."""
        try:
            return self._deployments[name]
        except KeyError:
            raise PlatformError(f"action {name!r} is not deployed") from None

    # -- invocation -------------------------------------------------------------

    def invoke(self, action_name: str, request: Request) -> Event:
        """Submit ``request`` to ``action_name``; returns the completion event."""
        deployment = self.deployment(action_name)
        request.submitted_at = self.sim.now
        if self.tracer is not None and request.span is None:
            request.span = self.tracer.start_span(
                "request",
                request_id=request.request_id,
                model_id=request.model_id,
                user_id=request.user_id,
            )
        done = self.sim.event()
        self.sim.process(
            self._admission(deployment, request, done),
            name=f"admit:{request.request_id}",
        )
        return done

    def _admission(self, deployment: _Deployment, request: Request, done: Event):
        span = None
        if self.tracer is not None and request.span is not None:
            span = self.tracer.start_span("controller_admission", parent=request.span)
        claim = self._overhead.request()
        yield claim
        try:
            yield self.sim.timeout(self.config.controller_overhead_s)
        finally:
            self._overhead.release(claim)
            if span is not None:
                span.end()
        self._dispatch(deployment, request, done)

    # -- scheduling -----------------------------------------------------------------

    def _dispatch(self, deployment: _Deployment, request: Request, done: Event) -> None:
        container = self._reuse(deployment, request.model_id)
        if container is None:
            node = self._place(deployment.spec)
            if node is not None:
                container = self._create_container(deployment, node)
        if container is None:
            deployment.pending.append((request, done))
            return
        self._assign(deployment, container, request, done)

    def _reuse(self, deployment: _Deployment, model_id: str) -> Optional[Container]:
        """The live container with a free slot the warm pool picks, if any."""
        name = deployment.warm_pool.suggest(model_id, self.sim.now)
        return deployment.containers[name] if name is not None else None

    def _place(self, spec: ActionSpec) -> Optional[Invoker]:
        """Home-node-first placement on memory availability.

        The home node is a process-stable digest of the action name (as
        OpenWhisk's is): ``hash()`` is salted per process, and placement
        decides cold starts.
        """
        home = zlib.crc32(spec.name.encode()) % len(self.nodes)
        ordering = self.nodes[home:] + self.nodes[:home]
        for node in ordering:
            if node.can_fit(spec.memory_budget):
                return node
        return None

    def _record_memory(self) -> None:
        reserved = sum(node.memory_used for node in self.nodes)
        self._memory.record(self.sim.now, reserved)
        self.metrics.time_series("containers.active").record(
            self.sim.now, self._active_containers
        )

    def _create_container(self, deployment: _Deployment, node: Invoker) -> Container:
        node.reserve_memory(deployment.spec.memory_budget)
        self._active_containers += 1
        self._record_memory()
        self.cold_starts += 1
        self.metrics.counter("containers.cold_starts").inc()
        container = Container(
            f"container-{next(self._container_ids)}",
            deployment.spec,
            node,
            deployment.factory(),
        )
        container.ready_event = self.sim.event()
        deployment.containers[container.container_id] = container
        deployment.warm_pool.on_launch(
            container.container_id,
            self.sim.now,
            cold_start_s=None,  # still starting: _startup reports it
            slots=deployment.spec.concurrency,
        )
        self.sim.process(
            self._startup(container), name=f"startup:{container.container_id}"
        )
        return container

    def _startup(self, container: Container):
        launched_at = self.sim.now
        root = None
        if self.tracer is not None:
            root = self.tracer.start_span(
                "container.startup",
                container_id=container.container_id,
                node_id=container.node.node_id,
                action=container.spec.name,
            )
            sandbox = self.tracer.start_span(
                "stage:sandbox_init", parent=root, stage="sandbox_init"
            )
        yield self.sim.timeout(self.config.sandbox_init_s)
        if root is not None:
            sandbox.end()
        ctx = ContainerContext(
            sim=self.sim,
            node=container.node,
            container=container,
            tracer=self.tracer,
            span=root,
        )
        yield from container.runtime.startup(ctx)
        if root is not None:
            root.end()
        container.ready = True
        deployment = self._deployments[container.spec.name]
        deployment.warm_pool.on_ready(
            container.container_id, self.sim.now, self.sim.now - launched_at
        )
        container.ready_event.succeed()

    def _assign(
        self,
        deployment: _Deployment,
        container: Container,
        request: Request,
        done: Event,
    ) -> None:
        container.in_flight += 1
        deployment.warm_pool.on_dispatch(
            container.container_id,
            request.model_id,
            self.sim.now,
            launched=not container.ready,
        )
        self.sim.process(
            self._serve(deployment, container, request, done),
            name=f"serve:{request.request_id}",
        )

    def _serve(
        self,
        deployment: _Deployment,
        container: Container,
        request: Request,
        done: Event,
    ):
        waited_for_startup = not container.ready
        if waited_for_startup:
            yield container.ready_event
        started = self.sim.now
        serve_span = None
        if self.tracer is not None and request.span is not None:
            serve_span = self.tracer.start_span(
                "serve",
                parent=request.span,
                container_id=container.container_id,
                node_id=container.node.node_id,
            )
            if waited_for_startup:
                # Link the trace of the cold start this request adopted.
                serve_span.set_attribute(
                    "adopted_startup", container.container_id
                )
        ctx = ContainerContext(
            sim=self.sim,
            node=container.node,
            container=container,
            tracer=self.tracer,
            span=serve_span,
        )
        response, kind, stages = yield from container.runtime.handle(ctx, request)
        if waited_for_startup:
            # The sandbox (and, for SeMIRT, its enclave) was created for
            # this request: a platform-level cold start.  Fold the startup
            # stages into this request's accounting.
            kind = "cold"
            stages = {
                "sandbox_init": self.config.sandbox_init_s,
                **container.runtime.startup_stage_seconds,
                **stages,
            }
        container.in_flight -= 1
        deployment.warm_pool.on_complete(
            container.container_id, request.model_id, self.sim.now
        )
        self.completed += 1
        if serve_span is not None:
            serve_span.set_attribute("flavor", kind)
            serve_span.end()
            request.span.set_attribute("flavor", kind)
            request.span.end()
        self.metrics.counter("requests.completed").inc()
        self.metrics.counter(f"invocations.{kind}").inc()
        self.metrics.histogram("latency.seconds").observe(
            self.sim.now - request.submitted_at
        )
        done.succeed(
            InvocationResult(
                request=request,
                response=response,
                kind=kind,
                container_id=container.container_id,
                node_id=container.node.node_id,
                submitted_at=request.submitted_at,
                started_at=started,
                finished_at=self.sim.now,
                stage_seconds=stages,
            )
        )
        self._drain(deployment)
        if container.idle:
            self._went_idle(deployment, container)

    def _drain(self, deployment: _Deployment) -> None:
        """Feed queued requests into any free capacity."""
        while deployment.pending:
            container = self._reuse(deployment, deployment.pending[0][0].model_id)
            if container is None:
                node = self._place(deployment.spec)
                if node is None:
                    return
                container = self._create_container(deployment, node)
            request, done = deployment.pending.popleft()
            self._assign(deployment, container, request, done)

    # -- keep-alive ------------------------------------------------------------------

    def _went_idle(self, deployment: _Deployment, container: Container) -> None:
        """``container`` has nothing in flight: reclaim it now, or sweep at
        the instant its keep-alive expires."""
        expiry = deployment.warm_pool.expiry(container.container_id)
        if expiry <= self.sim.now:
            # no keep-alive: the container goes with its last request
            self._sweep(deployment, reason="teardown")
        else:
            self.sim.process(
                self._sweep_at(deployment, expiry),
                name=f"sweep:{container.container_id}",
            )

    def _sweep_at(self, deployment: _Deployment, expiry: float):
        yield self.sim.at(expiry)
        self._sweep(deployment, reason="janitor")

    def _sweep(self, deployment: _Deployment, reason: str) -> None:
        """Tear down what the deployment's janitor nominates now."""
        for name in deployment.warm_pool.sweep(self.sim.now):
            self._destroy(deployment.containers[name], reason)

    def _destroy(self, container: Container, reason: str) -> None:
        container.destroyed = True
        ctx = ContainerContext(sim=self.sim, node=container.node, container=container)
        container.runtime.shutdown(ctx)
        container.node.release_memory(container.spec.memory_budget)
        self._active_containers -= 1
        self._record_memory()
        deployment = self._deployments[container.spec.name]
        del deployment.containers[container.container_id]
        deployment.warm_pool.on_retire(
            container.container_id, self.sim.now, reason=reason
        )
        # Freed memory may unblock queued cold starts of any action.
        for other in self._deployments.values():
            if other.pending:
                self._drain(other)

    # -- introspection ----------------------------------------------------------------

    def warm_containers(self, action_name: str) -> int:
        """Count of live (non-destroyed) containers for an action."""
        return len(self.deployment(action_name).containers)
