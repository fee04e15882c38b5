"""Pool and endpoint-state data shared by every router.

An :class:`FnPool` is the owner-declared unit of routing: a set of
models that share a fleet of interchangeable endpoints (each endpoint
can load any model of the pool; SeMIRT switches models inside the
enclave).  :class:`EndpointState` is the router's view of one endpoint,
built purely from observed traffic -- routers never talk to endpoints,
they only watch dispatches, completions, failures, and health marks
flow past.

This module is twin-agnostic: the same pool/state objects drive the
simulated Controller (via ``repro.workloads.driver``) and live
``SemirtHost`` fleets (via ``repro.core.gateway``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigError


@dataclass(frozen=True)
class FnPool:
    """The owner-declared pool: models sharing a set of endpoints."""

    name: str
    models: Tuple[str, ...]
    memory_budget: int
    num_endpoints: Optional[int] = None  # default: one per model

    def __post_init__(self) -> None:
        if not self.models:
            raise ConfigError("an FnPool needs at least one model")
        if len(set(self.models)) != len(self.models):
            raise ConfigError("duplicate model ids in FnPool")

    @property
    def endpoint_count(self) -> int:
        return self.num_endpoints if self.num_endpoints is not None else len(self.models)


@dataclass
class EndpointState:
    """A router's view of one endpoint (built from observed traffic)."""

    name: str
    pending: int = 0                       # responses not yet returned
    exclusive_for: Optional[str] = None    # model this endpoint is pinned to
    current_model: Optional[str] = None    # last model dispatched here
    last_request_at: float = float("-inf")
    healthy: bool = True                   # dead invokers receive no traffic
    draining: bool = False                 # finishing in-flight work, no new requests

    @property
    def available(self) -> bool:
        """Whether the endpoint may receive new traffic at all."""
        return self.healthy and not self.draining
