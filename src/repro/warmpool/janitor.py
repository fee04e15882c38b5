"""The scale-to-zero janitor: retire endpoints idle past keep-alive.

The gateway (PR 4) only ever *grows* its fleet under pressure; without
a janitor an idle fleet holds its peak size -- and its EPC -- forever.
The :class:`Janitor` turns the fleet into a managed lifecycle: on each
sweep it nominates every endpoint idle past ``keep_alive_s`` for
retirement, oldest-idle first, while

- a ``min_warm`` floor keeps that many endpoints alive no matter how
  idle they are (``min_warm=0`` is true scale-to-zero);
- endpoints with work in flight are never candidates (an idle endpoint
  by definition has ``in_flight == 0``; batch leaders hold their
  request in flight for the whole accumulation window, so they are
  covered too); and
- explicitly *pinned* endpoints (attached/shared hosts the gateway
  does not own) are skipped.

An idle endpoint's **expiry** is exact: ``last_used + keep_alive_s``
(:meth:`Janitor.expiry`), and a sweep at that instant nominates it.  A
caller that keeps time itself (the simulated Controller) sweeps at each
expiry; one on a wall clock (the gateway's ``maintain``) sweeps when it
likes -- a sweep with nothing expired nominates nothing.

The janitor only nominates; the caller retires through its own
lifecycle (the gateway's drain-then-retire
:meth:`~repro.core.gateway.InferenceGateway.retire`, the Controller's
container teardown), so in-flight work always finishes and hosts are
destroyed exactly once.

Like everything in :mod:`repro.warmpool`, sweeps take ``now``
explicitly and are fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import ConfigError
from repro.warmpool.strategy import WarmEndpoint


@dataclass(frozen=True)
class JanitorPolicy:
    """When idle endpoints are retired.

    ``keep_alive_s`` is how long an endpoint may sit idle before the
    janitor retires it (0 retires on the first sweep after going
    idle).  ``min_warm`` endpoints always survive.
    """

    keep_alive_s: float = 30.0
    min_warm: int = 1

    def __post_init__(self) -> None:
        if self.keep_alive_s < 0:
            raise ConfigError("keep_alive_s must be >= 0")
        if self.min_warm < 0:
            raise ConfigError("min_warm must be >= 0")


class Janitor:
    """Nominate idle-past-keep-alive endpoints for retirement."""

    def __init__(self, policy: JanitorPolicy) -> None:
        self.policy = policy
        self.sweeps = 0

    def expiry(self, endpoint: WarmEndpoint) -> float:
        """The instant an idle ``endpoint`` becomes retirable."""
        return endpoint.last_used + self.policy.keep_alive_s

    def sweep(
        self,
        now: float,
        idle: Sequence[WarmEndpoint],
        fleet_size: int,
    ) -> List[str]:
        """Endpoints to retire at ``now``, oldest-idle first.

        ``idle`` holds the retire-eligible idle endpoints (the caller
        already excluded in-flight and pinned ones); ``fleet_size`` is
        the whole live fleet, which the ``min_warm`` floor counts
        against -- busy endpoints keep idle ones retirable.
        """
        self.sweeps += 1
        expired = sorted(
            (ep for ep in idle if self.expiry(ep) <= now),
            key=lambda ep: (ep.last_used, ep.seq),
        )
        retirable = max(0, fleet_size - self.policy.min_warm)
        return [ep.name for ep in expired[:retirable]]


__all__ = ["Janitor", "JanitorPolicy"]
