"""Routing policies: FnPacker (Section IV-C) and the two baselines.

FnPacker sits in front of the serverless proxy and routes encrypted
requests to function endpoints.  The owner declares an :class:`FnPool`
(a set of models plus the per-instance memory budget); FnPacker deploys
a set of endpoints that can each serve *any* model of the pool and
schedules requests so that:

- a model with **pending responses** keeps going to the endpoint already
  serving it, which becomes *exclusive* to that model -- hot models get
  dedicated endpoints and never pay switching costs;
- a model with no pending responses goes to the first endpoint that is
  **not busy**: either it has no pending work and is not exclusive to
  another model, or its exclusivity has lapsed (a large interval passed
  since its last request).

Routing sees only model ids, never plaintext, so it is security-neutral
(Section IV-D).  The two baselines of the evaluation -- *One-to-one*
and *All-in-one* -- implement the same :class:`Router` interface.

Beyond the paper's policy, routers expose the endpoint lifecycle the
gateway and the sim service need: failure accounting (releasing the
slots of requests that died mid-flight), an ``exclude`` set for
rerouting around busy queues, and scale-out / drain / retire.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import ConfigError, RoutingError
from repro.routing.pool import EndpointState, FnPool

_NO_EXCLUDE: FrozenSet[str] = frozenset()


class Router:
    """Common interface: deployment layout + per-request routing."""

    def endpoints(self) -> List[Tuple[str, Tuple[str, ...]]]:
        """``(endpoint_name, servable_models)`` pairs to deploy."""
        raise NotImplementedError

    def route(
        self, model_id: str, now: float, exclude: FrozenSet[str] = _NO_EXCLUDE
    ) -> str:
        """Pick the endpoint for a request to ``model_id``.

        ``exclude`` names endpoints the caller already knows to be
        unusable for this request (a full admission queue, an open
        circuit breaker, a dead host).  No router returns one of them:
        handing it back would send the retry straight into the failure
        it is rerouting around.  A router with nowhere else to go raises
        :class:`~repro.errors.RoutingError`.
        """
        raise NotImplementedError

    def state(self, endpoint: str) -> Optional[EndpointState]:
        """The router's read-only view of ``endpoint``.

        ``None`` when the endpoint is unknown -- or when the router keeps
        no per-endpoint state at all (the two stateless baselines).
        """
        return None

    def on_dispatch(self, endpoint: str, model_id: str, now: float) -> None:
        """Observe a request being forwarded."""

    def on_complete(self, endpoint: str, model_id: str, now: float) -> None:
        """Observe a response coming back."""

    def on_failure(self, endpoint: str, model_id: str, now: float) -> None:
        """Observe an in-flight request dying without a response.

        Releases the slot taken by :meth:`on_dispatch`: every dispatch
        is followed by exactly one :meth:`on_complete` or
        :meth:`on_failure`, whatever happens to its endpoint meanwhile.
        Unlike :meth:`on_complete` it never raises -- a counter already
        at zero stays there.
        """

    def mark_endpoint_down(self, endpoint: str) -> None:
        """Stop routing to ``endpoint`` (its invoker died)."""

    def mark_endpoint_up(self, endpoint: str) -> None:
        """Resume routing to a recovered ``endpoint``."""

    # -- endpoint lifecycle (scale-out / drain / retire) -------------------------

    def add_endpoint(self, name: Optional[str] = None) -> Tuple[str, Tuple[str, ...]]:
        """Grow the pool by one endpoint; returns its deployment pair."""
        raise RoutingError(f"{type(self).__name__} does not support scale-out")

    def begin_drain(self, endpoint: str) -> None:
        """Stop sending new requests to ``endpoint``; in-flight finishes."""
        raise RoutingError(f"{type(self).__name__} does not support draining")

    def end_drain(self, endpoint: str) -> None:
        """Route to a draining ``endpoint`` again (a refused retirement).

        A no-op on a router that never drains.
        """

    def retire_endpoint(self, endpoint: str) -> None:
        """Remove a drained endpoint from the pool entirely."""
        raise RoutingError(f"{type(self).__name__} does not support retirement")


class FnPackerRouter(Router):
    """The adaptive packing scheduler of Section IV-C.

    ``idle_interval_s`` is how long an exclusive endpoint must be quiet
    before other models may reuse it.  ``slots_per_endpoint`` is how
    many requests one endpoint serves concurrently -- the ``tcs_count``
    of its SeMIRT enclave.  With more than one slot an endpoint stays
    schedulable (for the *same* model) until its in-flight count reaches
    the slot count, so multi-TCS instances are actually kept full
    instead of serialising at the router.
    """

    def __init__(
        self,
        pool: FnPool,
        idle_interval_s: float = 10.0,
        slots_per_endpoint: int = 1,
    ) -> None:
        if slots_per_endpoint < 1:
            raise ConfigError("an endpoint needs at least one slot")
        self.pool = pool
        self.idle_interval_s = idle_interval_s
        self.slots_per_endpoint = slots_per_endpoint
        self._endpoints: Dict[str, EndpointState] = {
            f"{pool.name}-ep{i}": EndpointState(name=f"{pool.name}-ep{i}")
            for i in range(pool.endpoint_count)
        }
        self._endpoint_seq = pool.endpoint_count
        self._model_pending: Dict[str, int] = {m: 0 for m in pool.models}
        self._model_endpoint: Dict[str, str] = {}

    def endpoints(self) -> List[Tuple[str, Tuple[str, ...]]]:
        """All pool endpoints; each can serve every model of the pool."""
        return [(name, self.pool.models) for name in self._endpoints]

    def state(self, endpoint: str) -> Optional[EndpointState]:
        """The live :class:`EndpointState` of ``endpoint`` (do not mutate)."""
        return self._endpoints.get(endpoint)

    # -- scheduling ---------------------------------------------------------------

    def _is_not_busy(self, ep: EndpointState, model_id: str, now: float) -> bool:
        if not ep.available:
            return False
        if ep.exclusive_for in (None, model_id) and (
            ep.pending == 0
            or (
                ep.pending < self.slots_per_endpoint
                and ep.current_model == model_id
            )
        ):
            return True
        if (
            ep.pending == 0
            and ep.exclusive_for is not None
            and now - ep.last_request_at >= self.idle_interval_s
        ):
            return True
        return False

    def route(
        self, model_id: str, now: float, exclude: FrozenSet[str] = _NO_EXCLUDE
    ) -> str:
        """Pick the endpoint for a request per the Section IV-C policy."""
        if model_id not in self._model_pending:
            raise RoutingError(f"model {model_id!r} is not in pool {self.pool.name!r}")
        # Rule 1: pending responses pin the model to its endpoint --
        # unless that endpoint's invoker died (or the caller excluded
        # it), in which case the pin is void and the request reroutes
        # like any other.
        if self._model_pending[model_id] > 0:
            endpoint = self._model_endpoint.get(model_id)
            if (
                endpoint is not None
                and endpoint not in exclude
                and self._endpoints[endpoint].available
            ):
                self._endpoints[endpoint].exclusive_for = model_id
                return endpoint
        # Prefer the endpoint that served this model last (warm caches).
        previous = self._model_endpoint.get(model_id)
        if (
            previous is not None
            and previous not in exclude
            and previous in self._endpoints
            and self._is_not_busy(self._endpoints[previous], model_id, now)
        ):
            return previous
        # Rule 2: first endpoint that is not busy serving another model.
        for ep in self._endpoints.values():
            if ep.name not in exclude and self._is_not_busy(ep, model_id, now):
                return ep.name
        # Fallback: least pending work among the healthy endpoints.
        candidates = [
            ep
            for ep in self._endpoints.values()
            if ep.available and ep.name not in exclude
        ]
        if not candidates:
            if exclude:
                raise RoutingError(
                    f"every usable endpoint of pool {self.pool.name!r} is excluded"
                )
            raise RoutingError(
                f"every endpoint of pool {self.pool.name!r} is down"
            )
        return min(candidates, key=lambda e: e.pending).name

    def on_dispatch(self, endpoint: str, model_id: str, now: float) -> None:
        """Record a forwarded request (updates pending counts and pins)."""
        ep = self._endpoints[endpoint]
        ep.pending += 1
        ep.current_model = model_id
        ep.last_request_at = now
        self._model_pending[model_id] += 1
        self._model_endpoint[model_id] = endpoint

    def on_complete(self, endpoint: str, model_id: str, now: float) -> None:
        """Record a returned response (decrements pending counts)."""
        ep = self._endpoints[endpoint]
        if ep.pending == 0 or self._model_pending.get(model_id, 0) == 0:
            raise RoutingError("completion observed without a matching dispatch")
        ep.pending -= 1
        self._model_pending[model_id] -= 1

    def on_failure(self, endpoint: str, model_id: str, now: float) -> None:
        """Release the slot of a request that died mid-flight."""
        ep = self._endpoints.get(endpoint)
        if ep is not None and ep.pending > 0:
            ep.pending -= 1
        if self._model_pending.get(model_id, 0) > 0:
            self._model_pending[model_id] -= 1

    # -- invoker health --------------------------------------------------------------

    def mark_endpoint_down(self, endpoint: str) -> None:
        """Take a dead invoker out of rotation.

        Its exclusivity pin is void at once -- retries must be free to
        land elsewhere, and no rule routes to an unavailable endpoint.
        Its pending counts stay: each belongs to a request whose own
        :meth:`on_failure` releases it.  Clearing them here released
        those slots twice, and the second release ate a slot taken
        since on another endpoint (or on this one, relaunched).
        """
        ep = self._endpoints[endpoint]
        ep.healthy = False
        ep.exclusive_for = None

    def mark_endpoint_up(self, endpoint: str) -> None:
        """Return a recovered invoker to rotation (cold, unpinned)."""
        ep = self._endpoints[endpoint]
        ep.healthy = True
        ep.current_model = None

    # -- endpoint lifecycle (scale-out / drain / retire) -------------------------

    def add_endpoint(self, name: Optional[str] = None) -> Tuple[str, Tuple[str, ...]]:
        """Grow the pool by one endpoint (regrowth from zero)."""
        if name is None:
            name = f"{self.pool.name}-ep{self._endpoint_seq}"
        if name in self._endpoints:
            raise RoutingError(f"endpoint {name!r} already exists")
        self._endpoint_seq += 1
        self._endpoints[name] = EndpointState(name=name)
        return (name, self.pool.models)

    def begin_drain(self, endpoint: str) -> None:
        """Stop routing new requests to ``endpoint``; keep it accounted."""
        ep = self._endpoints[endpoint]
        ep.draining = True
        ep.exclusive_for = None

    def end_drain(self, endpoint: str) -> None:
        """Route to a draining ``endpoint`` again (a refused retirement)."""
        ep = self._endpoints.get(endpoint)
        if ep is not None:
            ep.draining = False

    def retire_endpoint(self, endpoint: str) -> None:
        """Drop a drained endpoint; refuses while work is in flight."""
        ep = self._endpoints[endpoint]
        if ep.pending:
            raise RoutingError(
                f"endpoint {endpoint!r} still has {ep.pending} request(s) in flight"
            )
        del self._endpoints[endpoint]
        for model_id, pinned in list(self._model_endpoint.items()):
            if pinned == endpoint:
                del self._model_endpoint[model_id]

    # -- introspection ---------------------------------------------------------------

    def exclusive_assignments(self) -> Dict[str, str]:
        """``endpoint -> model`` for endpoints currently marked exclusive."""
        return {
            name: ep.exclusive_for
            for name, ep in self._endpoints.items()
            if ep.exclusive_for is not None
        }


def _unless_excluded(endpoint: str, exclude: FrozenSet[str]) -> str:
    """A fixed-layout router's only endpoint -- or nowhere to go."""
    if endpoint in exclude:
        raise RoutingError(f"endpoint {endpoint!r} is excluded and has no alternative")
    return endpoint


class OneToOneRouter(Router):
    """Baseline: one dedicated endpoint per model."""

    def __init__(self, pool: FnPool) -> None:
        self.pool = pool
        self._map = {m: f"{pool.name}-{m}" for m in pool.models}

    def endpoints(self) -> List[Tuple[str, Tuple[str, ...]]]:
        """One dedicated endpoint per model."""
        return [(ep, (model,)) for model, ep in self._map.items()]

    def route(
        self, model_id: str, now: float, exclude: FrozenSet[str] = _NO_EXCLUDE
    ) -> str:
        """Route to the model's dedicated endpoint, unless it is excluded."""
        if model_id not in self._map:
            raise RoutingError(f"model {model_id!r} is not in pool {self.pool.name!r}")
        return _unless_excluded(self._map[model_id], exclude)


class AllInOneRouter(Router):
    """Baseline: a single endpoint serves every model in the pool."""

    def __init__(self, pool: FnPool) -> None:
        self.pool = pool
        self._endpoint = f"{pool.name}-all"

    def endpoints(self) -> List[Tuple[str, Tuple[str, ...]]]:
        """The single shared endpoint serving every model."""
        return [(self._endpoint, self.pool.models)]

    def route(
        self, model_id: str, now: float, exclude: FrozenSet[str] = _NO_EXCLUDE
    ) -> str:
        """Route every model to the shared endpoint, unless it is excluded."""
        if model_id not in self.pool.models:
            raise RoutingError(f"model {model_id!r} is not in pool {self.pool.name!r}")
        return _unless_excluded(self._endpoint, exclude)
