"""WarmPoolManager: strategy + janitor + predictor behind one facade.

The manager is the warm pool's single source of truth.  It observes the
fleet lifecycle (``on_launch`` / ``on_retire`` / ``on_down``) and the
traffic (``on_dispatch`` / ``on_complete`` / ``on_failure``), and from
those events answers the three questions its host asks:

- :meth:`suggest` -- which warm endpoint with a free slot should this
  request reuse?  (the configured
  :class:`~repro.warmpool.strategy.WarmStrategy`)
- :meth:`sweep` -- which endpoints should be drained and retired now,
  and :meth:`expiry` -- when will an idle one be?  (the
  :class:`~repro.warmpool.janitor.Janitor`)
- :meth:`prewarm_count` -- how many endpoints should be launched ahead
  of predicted demand?  (the
  :class:`~repro.warmpool.predictor.Prewarmer`)

Every dispatch is classified by temperature:

- **cold** -- the endpoint's host was launched for this request (the
  full ``EC_INIT`` + attestation price);
- **hot** -- the endpoint's runtime is already initialised for this
  model (``last_model`` matches): execution only;
- **warm** -- the endpoint is alive but must switch models (runtime
  re-init, no enclave launch).

An endpoint offers ``slots`` concurrent requests (``on_launch``): the
live gateway's endpoints take one, a simulated OpenWhisk container its
action's concurrency (Figure 14 runs 4-slot enclaves).  Both twins keep
their warm pools here -- the gateway through ``GatewayConfig.warm_pool``,
the Controller through ``PlatformConfig.warm_pool``.

Classification counters, per-endpoint idle ages, janitor retire counts,
and predictor rates surface through :meth:`stats` (the service tier's
``/v1/stats`` section).  Every decision is appended to a bounded
**decision log** of plain strings -- a seeded trace replayed against a
fresh manager produces a byte-identical log, which CI gates on.

Thread-safe: the live gateway dispatches from many threads; one lock
guards all mutable state.  Determinism holds for any single-threaded
(or externally serialised) event sequence.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.warmpool.janitor import Janitor, JanitorPolicy
from repro.warmpool.predictor import PredictorPolicy, Prewarmer
from repro.warmpool.strategy import (
    STRATEGIES,
    WarmEndpoint,
    WarmStrategy,
    make_strategy,
)

#: dispatch temperatures, coldest first
TEMPERATURES = ("cold", "warm", "hot")


@dataclass(frozen=True)
class WarmPoolConfig:
    """Every warm-pool knob in one place.

    ``strategy`` picks the warm-instance reuse policy (``lcs`` /
    ``mru`` / ``affinity``); ``keep_alive_s`` / ``min_warm`` drive the
    janitor; ``max_endpoints`` caps the
    fleet whatever the predictor wants; ``predictive`` arms the
    pre-warmer with ``predictor`` as its policy.
    """

    strategy: str = "lcs"
    keep_alive_s: float = 30.0
    min_warm: int = 1
    max_endpoints: int = 8
    predictive: bool = False
    predictor: PredictorPolicy = field(default_factory=PredictorPolicy)
    log_capacity: int = 65536

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown warm strategy {self.strategy!r}; "
                f"expected one of {', '.join(STRATEGIES)}"
            )
        if self.max_endpoints < 1:
            raise ConfigError("max_endpoints must be >= 1")
        if self.min_warm > self.max_endpoints:
            raise ConfigError("min_warm cannot exceed max_endpoints")
        if self.log_capacity < 1:
            raise ConfigError("log_capacity must be >= 1")

    def janitor_policy(self) -> JanitorPolicy:
        """The janitor's slice of this config."""
        return JanitorPolicy(keep_alive_s=self.keep_alive_s, min_warm=self.min_warm)


@dataclass
class EndpointRecord:
    """The manager's view of one live endpoint."""

    name: str
    seq: int                      # launch order within this pool
    last_used: float              # last launch, dispatch or completion
    slots: int = 1                # concurrent requests it takes
    cold_start_s: float = 0.0     # measured startup (0.0 until ready)
    ready: bool = True            # False while its sandbox/enclave starts
    prewarmed: bool = False
    in_flight: int = 0
    last_model: Optional[str] = None
    #: start of the last service-time sample (``None`` after a cold
    #: dispatch: a launch is not service time)
    last_dispatch_at: Optional[float] = None
    pinned: bool = False          # attached/shared host: never retire
    dispatches: int = 0

    def view(self) -> WarmEndpoint:
        """The strategy's and the janitor's snapshot of this endpoint."""
        return WarmEndpoint(self.name, self.last_used, self.seq, self.last_model)


class WarmPoolManager:
    """Compose strategy, janitor, and pre-warmer over one fleet."""

    def __init__(self, config: Optional[WarmPoolConfig] = None) -> None:
        self.config = config if config is not None else WarmPoolConfig()
        self.strategy: WarmStrategy = make_strategy(self.config.strategy)
        self.janitor = Janitor(self.config.janitor_policy())
        self.prewarmer: Optional[Prewarmer] = (
            Prewarmer(self.config.predictor) if self.config.predictive else None
        )
        self._records: Dict[str, EndpointRecord] = {}
        self._counters: Dict[str, int] = {
            "cold": 0, "warm": 0, "hot": 0,
            "launches": 0, "prewarm_launches": 0,
            "janitor_retired": 0, "retired": 0,
        }
        self._log: List[str] = []
        self._seqs = itertools.count(1)  # launch order, for tie-breaks
        self._lock = threading.Lock()

    # -- fleet lifecycle ---------------------------------------------------------

    def on_launch(
        self,
        endpoint: str,
        now: float,
        cold_start_s: Optional[float] = 0.0,
        prewarmed: bool = False,
        pinned: bool = False,
        slots: int = 1,
    ) -> None:
        """Register a live endpoint (lazy, pre-warm, or relaunch).

        ``cold_start_s`` is the measured startup of an endpoint that is
        ready now, or ``None`` for one still starting, whose host reports
        it through :meth:`on_ready` once it is.
        """
        ready = cold_start_s is not None
        with self._lock:
            self._records[endpoint] = EndpointRecord(
                name=endpoint,
                seq=next(self._seqs),
                last_used=now,
                slots=slots,
                cold_start_s=cold_start_s if ready else 0.0,
                ready=ready,
                prewarmed=prewarmed,
                pinned=pinned,
            )
            self._counters["launches"] += 1
            if prewarmed:
                self._counters["prewarm_launches"] += 1
            self._append(
                f"launch ep={endpoint} t={now:.6f} "
                f"cold_start_s={f'{cold_start_s:.6f}' if ready else 'pending'} "
                f"kind={'prewarm' if prewarmed else 'demand'}"
            )

    def on_ready(self, endpoint: str, now: float, cold_start_s: float) -> None:
        """A starting endpoint is ready, ``cold_start_s`` after its launch."""
        with self._lock:
            record = self._records.get(endpoint)
            if record is None:
                return
            record.ready, record.cold_start_s = True, cold_start_s
            self._append(
                f"ready ep={endpoint} t={now:.6f} cold_start_s={cold_start_s:.6f}"
            )

    def on_retire(self, endpoint: str, now: float, reason: str = "janitor") -> None:
        """Drop a retired endpoint from the pool accounting."""
        with self._lock:
            if self._records.pop(endpoint, None) is None:
                return
            self._counters["retired"] += 1
            if reason == "janitor":
                self._counters["janitor_retired"] += 1
            self._append(f"retire ep={endpoint} t={now:.6f} reason={reason}")

    def on_down(self, endpoint: str, now: float) -> None:
        """An endpoint's host died; it re-registers when relaunched."""
        with self._lock:
            if self._records.pop(endpoint, None) is None:
                return
            self._append(f"down ep={endpoint} t={now:.6f}")

    def pin(self, endpoint: str) -> None:
        """Protect ``endpoint`` from the janitor (attached/shared host)."""
        with self._lock:
            record = self._records.get(endpoint)
            if record is not None:
                record.pinned = True

    def unpin(self, endpoint: str) -> None:
        """Make ``endpoint`` retirable again."""
        with self._lock:
            record = self._records.get(endpoint)
            if record is not None:
                record.pinned = False

    # -- traffic -----------------------------------------------------------------

    def on_dispatch(
        self, endpoint: str, model_id: str, now: float, launched: bool = False
    ) -> str:
        """Record one dispatch; returns its temperature."""
        with self._lock:
            record = self._records.get(endpoint)
            if record is None:
                # a dispatch to an endpoint the lifecycle hooks missed
                # (e.g. attached before the manager was armed): register
                # it so the accounting stays consistent.
                record = EndpointRecord(
                    name=endpoint, seq=next(self._seqs), last_used=now
                )
                self._records[endpoint] = record
            if launched:
                temperature = "cold"
            elif record.last_model == model_id:
                temperature = "hot"
            else:
                temperature = "warm"
            record.in_flight += 1
            record.last_model = model_id
            record.last_used = now
            record.last_dispatch_at = None if launched else now
            record.dispatches += 1
            self._counters[temperature] += 1
            self._append(
                f"dispatch ep={endpoint} model={model_id} t={now:.6f} "
                f"temp={temperature}"
            )
        if self.prewarmer is not None:
            self.prewarmer.on_dispatch(model_id, now)
        return temperature

    def on_complete(self, endpoint: str, model_id: str, now: float) -> None:
        """Record one response; the endpoint may become idle."""
        self._settle(endpoint, now, feed_service_time=True)

    def on_failure(self, endpoint: str, model_id: str, now: float) -> None:
        """Release the slot of a request that died mid-flight."""
        self._settle(endpoint, now, feed_service_time=False)

    def _settle(self, endpoint: str, now: float, feed_service_time: bool) -> None:
        service_s = None
        with self._lock:
            record = self._records.get(endpoint)
            if record is None:
                return
            if record.in_flight > 0:
                record.in_flight -= 1
            record.last_used = now
            if record.in_flight == 0:
                if (
                    feed_service_time
                    and record.last_dispatch_at is not None
                    and now >= record.last_dispatch_at
                ):
                    service_s = now - record.last_dispatch_at
        if service_s is not None and self.prewarmer is not None:
            self.prewarmer.on_service_time(service_s)

    # -- warm-instance selection ---------------------------------------------------

    def suggest(self, model_id: str, now: float) -> Optional[str]:
        """The endpoint with a free slot the strategy would reuse for ``model_id``.

        A pre-warmed endpoint is offered only once it is ready: its last
        use is its launch, so an age-ordered strategy would otherwise
        prefer it over ready idle ones, and a request sent there waits
        out the rest of the startup.
        """
        with self._lock:
            candidates = tuple(
                record.view()
                for record in self._records.values()
                if record.in_flight < record.slots
                and (record.ready or not record.prewarmed)
            )
        choice = self.strategy.select(candidates, model_id, now)
        return choice.name if choice is not None else None

    # -- janitor -----------------------------------------------------------------

    def expiry(self, endpoint: str) -> Optional[float]:
        """When the janitor may retire ``endpoint``: ``None`` while it is
        busy or pinned (or unknown), else ``last_used + keep_alive_s``."""
        with self._lock:
            record = self._records.get(endpoint)
            if record is None or record.in_flight or record.pinned:
                return None
            return self.janitor.expiry(record.view())

    def sweep(self, now: float) -> List[str]:
        """Endpoints the janitor retires now (oldest-idle first).

        Pure nomination: call :meth:`on_retire` for each endpoint once
        it has actually been drained and retired.
        """
        with self._lock:
            idle = [
                record.view()
                for record in self._records.values()
                if record.in_flight == 0 and not record.pinned
            ]
            fleet_size = len(self._records)
        victims = self.janitor.sweep(now, idle, fleet_size)
        if victims:
            with self._lock:
                self._append(
                    f"sweep t={now:.6f} victims={','.join(victims)}"
                )
        return victims

    # -- predictive pre-warming -----------------------------------------------------

    def prewarm_count(self, now: float) -> int:
        """Endpoints to launch ahead of demand (0 when not predictive)."""
        if self.prewarmer is None:
            return 0
        desired = min(
            max(self.prewarmer.desired_warm(now), self.config.min_warm),
            self.config.max_endpoints,
        )
        with self._lock:
            live = len(self._records)
        count = max(0, desired - live)
        if count:
            with self._lock:
                self._append(
                    f"prewarm t={now:.6f} desired={desired} live={live} "
                    f"launching={count}"
                )
        return count

    # -- observability ----------------------------------------------------------------

    @property
    def fleet_size(self) -> int:
        with self._lock:
            return len(self._records)

    def counters(self) -> Dict[str, int]:
        """A snapshot of the classification and lifecycle counters."""
        with self._lock:
            return dict(self._counters)

    def cold_start_ratio(self) -> float:
        """Cold dispatches over all dispatches (0.0 before traffic)."""
        with self._lock:
            total = (
                self._counters["cold"]
                + self._counters["warm"]
                + self._counters["hot"]
            )
            return self._counters["cold"] / total if total else 0.0

    def stats(self, now: float) -> dict:
        """The ``/v1/stats`` warm-pool section (JSON-ready)."""
        with self._lock:
            endpoints = {
                name: {
                    "idle_s": (
                        max(0.0, now - record.last_used)
                        if record.in_flight == 0
                        else 0.0
                    ),
                    "in_flight": record.in_flight,
                    "last_model": record.last_model,
                    "prewarmed": record.prewarmed,
                    "pinned": record.pinned,
                    "dispatches": record.dispatches,
                    "cold_start_s": record.cold_start_s,
                }
                for name, record in sorted(self._records.items())
            }
            counters = dict(self._counters)
        total = counters["cold"] + counters["warm"] + counters["hot"]
        return {
            "strategy": self.strategy.name,
            "keep_alive_s": self.config.keep_alive_s,
            "min_warm": self.config.min_warm,
            "predictive": self.config.predictive,
            "endpoints": endpoints,
            "counters": counters,
            "cold_start_ratio": counters["cold"] / total if total else 0.0,
            "janitor_sweeps": self.janitor.sweeps,
            "predictor_rates": (
                self.prewarmer.rates(now) if self.prewarmer is not None else {}
            ),
            "predicted_service_s": (
                self.prewarmer.service_time_s
                if self.prewarmer is not None
                else None
            ),
        }

    # -- decision log -------------------------------------------------------------------

    def _append(self, line: str) -> None:
        # caller holds the lock
        self._log.append(line)
        if len(self._log) > self.config.log_capacity:
            del self._log[: len(self._log) - self.config.log_capacity]

    def decision_log(self) -> List[str]:
        """A snapshot of the decision log (newest last)."""
        with self._lock:
            return list(self._log)

    def log_text(self) -> str:
        """The decision log as one string (the determinism gate input)."""
        return "\n".join(self.decision_log())


__all__ = [
    "EndpointRecord",
    "TEMPERATURES",
    "WarmPoolConfig",
    "WarmPoolManager",
]
