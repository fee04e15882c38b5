"""Sandbox containers and the runtime interface they host.

A :class:`Container` is one sandbox instance scheduled by the controller
onto an invoker node.  What runs inside is an :class:`ActionRuntime` --
the simulation-side counterpart of a container image.  SeSeMI's SeMIRT
image, the *Native* baseline, and the *Iso-reuse* baseline are all
``ActionRuntime`` implementations (see :mod:`repro.core.simbridge`), so
they are scheduled by exactly the same platform logic, as in the paper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Tuple

from repro.serverless.action import ActionSpec, Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serverless.invoker import Invoker
    from repro.sim.core import Simulation


@dataclass
class ContainerContext:
    """What a runtime can see of its surroundings."""

    sim: "Simulation"
    node: "Invoker"
    container: "Container"
    #: tracer observing this platform (``None`` when tracing is off)
    tracer: Any = None
    #: parent span for work done in this context (startup or serve)
    span: Any = None


class ActionRuntime(ABC):
    """The code running inside a container (simulation side).

    ``startup`` and ``handle`` are simulation processes: they yield events
    (timeouts, core requests) and may perform state updates.  ``handle``
    returns ``(response, kind, stage_seconds)`` where ``kind`` is the
    invocation path taken (``"cold"``/``"warm"``/``"hot"``).
    """

    #: stage durations accumulated during ``startup`` (e.g. enclave init);
    #: merged into the first request's stage accounting by the controller.
    startup_stage_seconds: dict = {}

    @abstractmethod
    def startup(self, ctx: ContainerContext) -> Generator:
        """Image-specific initialisation after the sandbox starts."""

    @abstractmethod
    def handle(
        self, ctx: ContainerContext, request: Request
    ) -> Generator[Any, Any, Tuple[Any, str, dict]]:
        """Serve one request."""

    def shutdown(self, ctx: ContainerContext) -> None:
        """Release resources when the container is reclaimed."""


class Container:
    """One sandbox instance bound to an action on a node."""

    def __init__(self, container_id: str, spec: ActionSpec, node: "Invoker",
                 runtime: ActionRuntime) -> None:
        self.container_id = container_id
        self.spec = spec
        self.node = node
        self.runtime = runtime
        self.in_flight = 0
        self.destroyed = False
        self.ready = False
        #: event that fires when startup completes
        self.ready_event = None  # set by the controller when startup begins

    @property
    def idle(self) -> bool:
        return self.in_flight == 0
