"""Action specifications and invocation records.

An *action* is a deployed serverless function: a container image plus a
memory budget (a multiple of 128 MB, the provisioning granularity of the
paper's Table V) and an intra-container concurrency limit (OpenWhisk's
``concurrency`` annotation; SeMIRT sets it to the enclave's TCS count).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigError

MEMORY_GRANULE = 128 * 1024 * 1024

_invocation_ids = itertools.count(1)


def round_memory_budget(nbytes: int) -> int:
    """Smallest multiple of 128 MB that is >= ``nbytes`` (Table V policy)."""
    if nbytes <= 0:
        raise ConfigError("memory requirement must be positive")
    return ((nbytes + MEMORY_GRANULE - 1) // MEMORY_GRANULE) * MEMORY_GRANULE


@dataclass(frozen=True)
class ActionSpec:
    """A deployable serverless function."""

    name: str
    image: str
    memory_budget: int
    concurrency: int = 1

    def __post_init__(self) -> None:
        if self.memory_budget % MEMORY_GRANULE:
            raise ConfigError(
                f"memory budget {self.memory_budget} is not a multiple of 128 MB; "
                "use round_memory_budget()"
            )
        if self.concurrency < 1:
            raise ConfigError("container concurrency must be >= 1")


@dataclass
class Request:
    """One user invocation travelling through the platform."""

    model_id: str
    user_id: str
    payload: Any = None
    request_id: int = field(default_factory=lambda: next(_invocation_ids))
    submitted_at: float = 0.0
    #: root :class:`~repro.obs.span.Span` of this request's trace; set by
    #: the driver (to cover routing) or the controller, ``None`` untraced
    span: Any = None


@dataclass
class InvocationResult:
    """What the platform hands back for one request."""

    request: Request
    response: Any
    kind: str                      # "cold" | "warm" | "hot"
    container_id: str
    node_id: str
    submitted_at: float
    started_at: float
    finished_at: float
    stage_seconds: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        """End-to-end latency the user observes."""
        return self.finished_at - self.submitted_at
