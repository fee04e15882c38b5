"""Pluggable warm-instance strategies: which endpoint to reuse.

A strategy sees only :class:`WarmEndpoint` snapshots -- the members of
the fleet with a free slot at one instant (idle ones, and busy ones
below their concurrency) -- and picks the one a new request should land
on.  The choice shapes the pool over time:

- :class:`LCSStrategy` reuses the **least recently used** endpoint (the
  LCS paper's LRU-warm-container policy): every reuse refreshes the
  endpoint that was closest to its keep-alive deadline, so the whole
  pool stays warm and total cold-start latency is minimised.
- :class:`MRUStrategy` reuses the **most recently used** endpoint
  (OpenWhisk's pick): the idle tail is never refreshed, ages past
  ``keep_alive_s``, and the janitor retires it -- fewer warm endpoints,
  lower memory cost.
- :class:`AffinityStrategy` layers per-model warm sub-pools over a base
  strategy: an endpoint whose runtime is already initialised for the
  requested model (``last_model`` matches) is preferred, so reuse is
  *hot*, not merely warm -- the warm-pool face of the gateway's
  :class:`~repro.routing.BatchAffinity` hint.

Every strategy is deterministic: a last-use tie goes to the endpoint
launched first (``seq``), so a replayed trace makes identical picks
(the determinism CI gate) whatever the endpoints are named.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ConfigError

#: strategy names accepted by :func:`make_strategy`
STRATEGIES = ("lcs", "mru", "affinity")


@dataclass(frozen=True)
class WarmEndpoint:
    """A strategy's view of one warm endpoint with a free slot."""

    name: str
    last_used: float             # its last dispatch or completion
    seq: int                     # launch order within its pool
    last_model: Optional[str] = None  # model its runtime is initialised for


class WarmStrategy:
    """Common interface: pick the endpoint a request should reuse."""

    name = "?"

    def select(
        self,
        candidates: Sequence[WarmEndpoint],
        model_id: str,
        now: float,
    ) -> Optional[WarmEndpoint]:
        """The endpoint to reuse, or ``None`` when ``candidates`` is empty."""
        raise NotImplementedError


class LCSStrategy(WarmStrategy):
    """Reuse the least recently used endpoint; maximises the warm pool."""

    name = "lcs"

    def select(self, candidates, model_id, now):
        """The endpoint used longest ago (ties: the first launched)."""
        if not candidates:
            return None
        return min(candidates, key=lambda c: (c.last_used, c.seq))


class MRUStrategy(WarmStrategy):
    """Reuse the most recently used endpoint; maximises the retirable tail."""

    name = "mru"

    def select(self, candidates, model_id, now):
        """The endpoint used last (ties: the first launched)."""
        if not candidates:
            return None
        return max(candidates, key=lambda c: (c.last_used, -c.seq))


class AffinityStrategy(WarmStrategy):
    """Per-model warm sub-pools layered over a base strategy.

    Endpoints already initialised for ``model_id`` form the preferred
    sub-pool; the base strategy orders within it (and within the rest
    when no affine endpoint has a free slot).  A fresh pre-warmed endpoint
    (``last_model is None``) counts as affine to nothing, so it is only
    used once the per-model sub-pools are exhausted -- keeping it free
    for the model the predictor launched it for.
    """

    name = "affinity"

    def __init__(self, base: Optional[WarmStrategy] = None) -> None:
        self.base = base if base is not None else LCSStrategy()

    def select(self, candidates, model_id, now):
        """Prefer the model's warm sub-pool, then any used, then fresh."""
        if not candidates:
            return None
        affine = [c for c in candidates if c.last_model == model_id]
        if affine:
            return self.base.select(affine, model_id, now)
        used = [c for c in candidates if c.last_model is not None]
        if used:
            return self.base.select(used, model_id, now)
        return self.base.select(candidates, model_id, now)


def make_strategy(name: str, base: Optional[str] = None) -> WarmStrategy:
    """Build a warm-instance strategy by name.

    ``base`` only applies to ``affinity`` and names the strategy used
    inside each sub-pool (default ``lcs``).
    """
    if name == "lcs":
        return LCSStrategy()
    if name == "mru":
        return MRUStrategy()
    if name == "affinity":
        if base is not None and base == "affinity":
            raise ConfigError("affinity cannot be its own base strategy")
        inner = make_strategy(base) if base is not None else LCSStrategy()
        return AffinityStrategy(inner)
    raise ConfigError(
        f"unknown warm strategy {name!r}; expected one of {', '.join(STRATEGIES)}"
    )


__all__ = [
    "AffinityStrategy",
    "LCSStrategy",
    "MRUStrategy",
    "STRATEGIES",
    "WarmEndpoint",
    "WarmStrategy",
    "make_strategy",
]
