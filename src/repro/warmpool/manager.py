"""WarmPoolManager: keep-alive reuse and the scale-to-zero janitor.

The manager is the warm pool's single source of truth.  It observes the
fleet lifecycle (``on_launch`` / ``on_ready`` / ``on_retire`` /
``on_down``) and the traffic (``on_dispatch`` / ``on_complete`` /
``on_failure``), and from those events answers the two questions its
host asks:

- :meth:`suggest` -- which warm endpoint with a free slot should this
  request reuse?  ``lcs`` picks the **least recently used** one (the LCS
  paper's LRU-warm-container policy): every reuse refreshes the endpoint
  closest to its keep-alive deadline, so the whole pool stays warm.
  ``mru`` picks the **most recently used** one (OpenWhisk's pick): the
  idle tail is never refreshed and ages out, so the fleet stays small.
  A last-use tie goes to the endpoint launched first, so a replayed
  trace makes identical picks whatever the endpoints are named.
- :meth:`sweep` -- which endpoints should be drained and retired now,
  and :meth:`expiry` -- when will an idle one be?  An idle endpoint
  expires exactly ``keep_alive_s`` after its last use; a sweep nominates
  every expired one, oldest-idle first, while a ``min_warm`` floor
  (counted against the whole fleet, busy endpoints included) keeps that
  many alive (``min_warm=0`` is true scale-to-zero).  Endpoints with
  work in flight and *pinned* ones (attached/shared hosts) are never
  nominated.  The caller retires through its own lifecycle (the
  gateway's drain-then-retire, the Controller's container teardown), so
  in-flight work always finishes and hosts are destroyed exactly once.

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

Classification counters, per-endpoint idle ages and janitor retire
counts surface through :meth:`stats` (the service tier's ``/v1/stats``
section).  Every decision is appended to a bounded **decision log** of
plain strings (the newest :data:`LOG_ROWS` lines) -- a seeded trace
replayed against a fresh manager produces a byte-identical log, which
CI gates on.  Every method takes ``now`` explicitly; the manager never
reads a clock.

Thread-safe: the live gateway dispatches from many threads; one lock
guards all mutable state.  Determinism holds for any single-threaded
(or externally serialised) event sequence.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.errors import ConfigError

#: warm-endpoint reuse orders :class:`WarmPoolConfig` accepts
STRATEGIES = ("lcs", "mru")

#: decision-log lines a manager keeps (the oldest are dropped first)
LOG_ROWS = 65536


@dataclass(frozen=True)
class WarmPoolConfig:
    """Every warm-pool knob in one place.

    ``strategy`` picks the warm-endpoint reuse order (``lcs`` / ``mru``);
    ``keep_alive_s`` is how long an endpoint may sit idle before the
    janitor retires it (0 retires on the first sweep after going idle);
    ``min_warm`` endpoints always survive.
    """

    strategy: str = "lcs"
    keep_alive_s: float = 30.0
    min_warm: int = 1

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown warm strategy {self.strategy!r}; "
                f"expected one of {', '.join(STRATEGIES)}"
            )
        if self.keep_alive_s < 0:
            raise ConfigError("keep_alive_s must be >= 0")
        if self.min_warm < 0:
            raise ConfigError("min_warm must be >= 0")


@dataclass
class EndpointRecord:
    """The manager's view of one live endpoint."""

    name: str
    seq: int                      # launch order within this pool
    last_used: float              # last launch, dispatch or completion
    slots: int = 1                # concurrent requests it takes
    cold_start_s: float = 0.0     # measured startup (0.0 until ready)
    in_flight: int = 0
    last_model: Optional[str] = None
    pinned: bool = False          # attached/shared host: never retire
    dispatches: int = 0


class WarmPoolManager:
    """Keep-alive reuse and idle retirement over one fleet."""

    def __init__(self, config: Optional[WarmPoolConfig] = None) -> None:
        self.config = config if config is not None else WarmPoolConfig()
        self._records: Dict[str, EndpointRecord] = {}
        self._counters: Dict[str, int] = {
            "cold": 0, "warm": 0, "hot": 0,
            "launches": 0, "janitor_retired": 0, "retired": 0,
        }
        self._sweeps = 0
        self._log: Deque[str] = deque(maxlen=LOG_ROWS)
        self._seqs = itertools.count(1)  # launch order, for tie-breaks
        self._lock = threading.Lock()

    # -- fleet lifecycle ---------------------------------------------------------

    def on_launch(
        self,
        endpoint: str,
        now: float,
        cold_start_s: Optional[float] = 0.0,
        pinned: bool = False,
        slots: int = 1,
    ) -> None:
        """Register a live endpoint (a launch or a relaunch).

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
                pinned=pinned,
            )
            self._counters["launches"] += 1
            # ``kind=demand`` keeps the line format of earlier logs, so
            # their digests stay comparable
            self._log.append(
                f"launch ep={endpoint} t={now:.6f} "
                f"cold_start_s={f'{cold_start_s:.6f}' if ready else 'pending'} "
                f"kind=demand"
            )

    def on_ready(self, endpoint: str, now: float, cold_start_s: float) -> None:
        """A starting endpoint is ready, ``cold_start_s`` after its launch."""
        with self._lock:
            record = self._records.get(endpoint)
            if record is None:
                return
            record.cold_start_s = cold_start_s
            self._log.append(
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
            self._log.append(f"retire ep={endpoint} t={now:.6f} reason={reason}")

    def on_down(self, endpoint: str, now: float) -> None:
        """An endpoint's host died; it re-registers when relaunched."""
        with self._lock:
            if self._records.pop(endpoint, None) is None:
                return
            self._log.append(f"down ep={endpoint} t={now:.6f}")

    def pin(self, endpoint: str) -> None:
        """Protect ``endpoint`` from the janitor (attached/shared host)."""
        with self._lock:
            record = self._records.get(endpoint)
            if record is not None:
                record.pinned = True

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
            record.dispatches += 1
            self._counters[temperature] += 1
            self._log.append(
                f"dispatch ep={endpoint} model={model_id} t={now:.6f} "
                f"temp={temperature}"
            )
        return temperature

    def on_complete(self, endpoint: str, model_id: str, now: float) -> None:
        """Record one response; the endpoint may become idle."""
        with self._lock:
            record = self._records.get(endpoint)
            if record is None:
                return
            if record.in_flight > 0:
                record.in_flight -= 1
            record.last_used = now

    def on_failure(self, endpoint: str, model_id: str, now: float) -> None:
        """Release the slot of a request that died mid-flight."""
        self.on_complete(endpoint, model_id, now)

    # -- warm-instance selection ---------------------------------------------------

    def suggest(self, model_id: str, now: float) -> Optional[str]:
        """The endpoint with a free slot the strategy would reuse, if any."""
        with self._lock:
            free = [r for r in self._records.values() if r.in_flight < r.slots]
            if not free:
                return None
            if self.config.strategy == "lcs":
                return min(free, key=lambda r: (r.last_used, r.seq)).name
            return max(free, key=lambda r: (r.last_used, -r.seq)).name

    # -- janitor -----------------------------------------------------------------

    def expiry(self, endpoint: str) -> Optional[float]:
        """When the janitor may retire ``endpoint``: ``None`` while it is
        busy or pinned (or unknown), else ``last_used + keep_alive_s``."""
        with self._lock:
            record = self._records.get(endpoint)
            if record is None or record.in_flight or record.pinned:
                return None
            return record.last_used + self.config.keep_alive_s

    def sweep(self, now: float) -> List[str]:
        """Endpoints the janitor retires now (oldest-idle first).

        Pure nomination: call :meth:`on_retire` for each endpoint once
        it has actually been drained and retired.
        """
        with self._lock:
            self._sweeps += 1
            expired = sorted(
                (
                    r for r in self._records.values()
                    if not r.in_flight
                    and not r.pinned
                    and r.last_used + self.config.keep_alive_s <= now
                ),
                key=lambda r: (r.last_used, r.seq),
            )
            retirable = max(0, len(self._records) - self.config.min_warm)
            victims = [r.name for r in expired[:retirable]]
            if victims:
                self._log.append(f"sweep t={now:.6f} victims={','.join(victims)}")
        return victims

    # -- observability ----------------------------------------------------------------

    @property
    def fleet_size(self) -> int:
        with self._lock:
            return len(self._records)

    def counters(self) -> Dict[str, int]:
        """A snapshot of the classification and lifecycle counters."""
        with self._lock:
            return dict(self._counters)

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
                    "pinned": record.pinned,
                    "dispatches": record.dispatches,
                    "cold_start_s": record.cold_start_s,
                }
                for name, record in sorted(self._records.items())
            }
            counters = dict(self._counters)
            sweeps = self._sweeps
        total = counters["cold"] + counters["warm"] + counters["hot"]
        return {
            "strategy": self.config.strategy,
            "keep_alive_s": self.config.keep_alive_s,
            "min_warm": self.config.min_warm,
            "endpoints": endpoints,
            "counters": counters,
            "cold_start_ratio": counters["cold"] / total if total else 0.0,
            "janitor_sweeps": sweeps,
        }

    # -- decision log -------------------------------------------------------------------

    def decision_log(self) -> List[str]:
        """A snapshot of the decision log (newest last)."""
        with self._lock:
            return list(self._log)

    def log_text(self) -> str:
        """The decision log as one string (the determinism gate input)."""
        return "\n".join(self.decision_log())


__all__ = [
    "EndpointRecord",
    "LOG_ROWS",
    "STRATEGIES",
    "WarmPoolConfig",
    "WarmPoolManager",
]
