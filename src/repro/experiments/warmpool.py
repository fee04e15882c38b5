"""Warm-pool benchmark: cold-start elimination across reuse policies.

Four fleet policies serve the same seeded workloads through the *real*
:class:`~repro.warmpool.manager.WarmPoolManager` in pure virtual time:

- **none** -- no keep-alive: every endpoint is torn down the moment its
  request completes, so every arrival that finds no concurrent sibling
  pays the full enclave cold start (the serverless default SeSeMI's
  FnPacker exists to beat);
- **lcs** -- keep-alive with oldest-idle reuse: every reuse refreshes
  the endpoint closest to its keep-alive deadline, maximising the warm
  pool;
- **mru** -- keep-alive with newest-idle reuse: the idle tail ages out
  and the janitor retires it, trading warm hits for a smaller fleet;
- **lcs+predictive** -- LCS plus the EWMA pre-warmer launching
  endpoints ahead of predicted demand, so even fleet growth lands warm.

Two workloads: the Table III/IV FnPacker mix's Poisson streams (two
2 rps streams to two models) and the Figure 13 MMPP trace (mean rate
flipping 20 <-> 40 rps), both seeded.  Latencies come from the shared
:class:`~repro.core.costs.CostModel`: a cold dispatch pays enclave
init + key retrieval + runtime init, a warm one runtime init only, a
hot one just the execution -- so the cold/warm/hot split the manager
reports *is* the latency story.

The simulator is deterministic end to end (event heap ordered by time
then kind, the manager never reads a clock), so the same seed produces
a byte-identical warm-pool decision log -- ``decision_log_digest`` in
the result, pinned by ``tests/warmpool/test_determinism.py`` -- and
``repro run warmpool`` exits 1 below the >= 3x cold-start-reduction
floor (CI keeps the result as ``BENCH_warmpool.json``).

A third scenario demonstrates scale-to-zero: a burst grows the fleet,
traffic stops, and janitor sweeps shrink it to the ``min_warm`` floor
(the fleet-size timeline is in the result).
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.costs import CostModel
from repro.mlrt.zoo import profile
from repro.serverless.storage import NFS
from repro.sgx.platform import SGX2
from repro.warmpool.manager import WarmPoolConfig, WarmPoolManager
from repro.warmpool.predictor import PredictorPolicy
from repro.workloads.arrival import Arrival, poisson

POLICIES = ("none", "lcs", "mru", "lcs+predictive")
WORKLOADS = ("poisson", "mmpp")

#: event-kind priorities: completions free endpoints before the
#: maintenance tick sees them, and both run before same-time arrivals
_COMPLETE, _MAINTAIN, _ARRIVAL = 0, 1, 2

#: cold-start reduction ``run()`` gates on (predictive LCS vs none)
REDUCTION_GATE = 3.0


@dataclass
class _Endpoint:
    """The simulator's view of one live single-slot endpoint."""

    name: str
    busy: bool = False


class FleetSim:
    """A virtual-time fleet driven by one :class:`WarmPoolManager`.

    Endpoints are single-slot (one request at a time); requests that
    find the fleet saturated at ``max_endpoints`` queue FIFO.  All
    policy decisions -- which warm endpoint to reuse, when to retire,
    when to pre-warm -- come from the manager; the simulator only
    models time.
    """

    def __init__(
        self,
        manager: WarmPoolManager,
        cost: "LatencyTable",
        *,
        teardown_on_complete: bool = False,
        maintenance_s: float = 1.0,
    ) -> None:
        self.manager = manager
        self.cost = cost
        self.teardown_on_complete = teardown_on_complete
        self.maintenance_s = maintenance_s
        self.endpoints: Dict[str, _Endpoint] = {}
        self.queue: List[Tuple[str, str, float]] = []  # (model, user, t_arrive)
        self.latencies: List[float] = []
        self.temperatures: Dict[str, int] = {"cold": 0, "warm": 0, "hot": 0}
        self.fleet_timeline: List[Tuple[float, int]] = []
        self._seq = 0
        self._launch_seq = 0

    # -- driving -------------------------------------------------------------------

    def run(self, arrivals: List[Arrival], until: float) -> None:
        """Serve ``arrivals`` with maintenance ticks up to ``until``."""
        heap: List[Tuple[float, int, int, str, object]] = []
        for a in arrivals:
            self._push(heap, a.time, _ARRIVAL, (a.model_id, a.user_id))
        t = 0.0
        while t < until:
            self._push(heap, t, _MAINTAIN, None)
            t += self.maintenance_s
        while heap:
            now, kind, payload = self._pop(heap)
            if kind == _COMPLETE:
                self._complete(now, payload, heap)
            elif kind == _MAINTAIN:
                self._maintain(now)
            else:
                self._arrive(now, payload, heap)

    def _push(self, heap, time_s: float, kind: int, payload) -> None:
        self._seq += 1
        heapq.heappush(heap, (time_s, kind, self._seq, payload))

    def _pop(self, heap):
        time_s, kind, seq, payload = heapq.heappop(heap)
        return time_s, kind, payload

    # -- event handlers -------------------------------------------------------------

    def _arrive(self, now: float, payload, heap) -> None:
        model_id, user_id = payload
        endpoint = self.manager.suggest(model_id, now)
        if endpoint is not None and not self.endpoints[endpoint].busy:
            self._dispatch(now, endpoint, model_id, now, launched=False, heap=heap)
            return
        if len(self.endpoints) < self.manager.config.max_endpoints:
            endpoint = self._launch(now, prewarmed=False)
            self._dispatch(now, endpoint, model_id, now, launched=True, heap=heap)
            return
        self.queue.append((model_id, user_id, now))

    def _dispatch(
        self,
        now: float,
        endpoint: str,
        model_id: str,
        arrived_at: float,
        launched: bool,
        heap,
    ) -> None:
        temperature = self.manager.on_dispatch(
            endpoint, model_id, now, launched=launched
        )
        self.temperatures[temperature] += 1
        service_s = self.cost.service_s(temperature)
        self.endpoints[endpoint].busy = True
        done = now + service_s
        self.latencies.append(done - arrived_at)
        self._push(heap, done, _COMPLETE, (endpoint, model_id))

    def _complete(self, now: float, payload, heap) -> None:
        endpoint, model_id = payload
        self.manager.on_complete(endpoint, model_id, now)
        self.endpoints[endpoint].busy = False
        if self.teardown_on_complete:
            self._retire(now, endpoint, reason="baseline")
        if self.queue:
            model_id, _user, arrived_at = self.queue.pop(0)
            target = self.manager.suggest(model_id, now)
            if target is None or self.endpoints[target].busy:
                if len(self.endpoints) < self.manager.config.max_endpoints:
                    target = self._launch(now, prewarmed=False)
                    self._dispatch(
                        now, target, model_id, arrived_at, launched=True, heap=heap
                    )
                else:
                    self.queue.insert(0, (model_id, _user, arrived_at))
                return
            self._dispatch(
                now, target, model_id, arrived_at, launched=False, heap=heap
            )

    def _maintain(self, now: float) -> None:
        self.fleet_timeline.append((now, len(self.endpoints)))
        if self.teardown_on_complete:
            return
        if self.manager.sweep_due(now):
            for victim in self.manager.sweep(now):
                if not self.endpoints[victim].busy:
                    self._retire(now, victim, reason="janitor")
        for _ in range(self.manager.prewarm_count(now)):
            if len(self.endpoints) >= self.manager.config.max_endpoints:
                break
            self._launch(now, prewarmed=True)

    # -- fleet ---------------------------------------------------------------------

    def _launch(self, now: float, prewarmed: bool) -> str:
        name = f"ep{self._launch_seq}"
        self._launch_seq += 1
        self.endpoints[name] = _Endpoint(name=name)
        self.manager.on_launch(
            name, now, cold_start_s=self.cost.cold_start_s, prewarmed=prewarmed
        )
        return name

    def _retire(self, now: float, endpoint: str, reason: str) -> None:
        del self.endpoints[endpoint]
        self.manager.on_retire(endpoint, now, reason=reason)


class LatencyTable:
    """Cold/warm/hot service times anchored in the shared cost model."""

    def __init__(self, model_name: str = "MBNET", framework: str = "tvm") -> None:
        prof = profile(model_name)
        cost = CostModel(hardware=SGX2, storage=NFS)
        self.exec_s = prof.exec_s(framework)
        self.switch_s = cost.runtime_init_s(prof, framework)
        self.cold_start_s = cost.enclave_init_s(
            prof.enclave_bytes(framework)
        ) + cost.key_retrieval_s()

    def service_s(self, temperature: str) -> float:
        """End-to-end service time for one dispatch at ``temperature``."""
        if temperature == "cold":
            return self.cold_start_s + self.switch_s + self.exec_s
        if temperature == "warm":
            return self.switch_s + self.exec_s
        return self.exec_s


def _manager_for(policy: str, *, keep_alive_s: float, min_warm: int,
                 max_endpoints: int, service_time_s: float) -> WarmPoolManager:
    if policy == "none":
        # strategy is irrelevant: endpoints never survive a request
        return WarmPoolManager(WarmPoolConfig(
            strategy="lcs", keep_alive_s=0.0, min_warm=0,
            max_endpoints=max_endpoints,
        ))
    strategy = "mru" if policy == "mru" else "lcs"
    return WarmPoolManager(WarmPoolConfig(
        strategy=strategy,
        keep_alive_s=keep_alive_s,
        min_warm=min_warm,
        max_endpoints=max_endpoints,
        predictive=policy == "lcs+predictive",
        predictor=PredictorPolicy(service_time_s=service_time_s),
    ))


def run_policy(
    policy: str,
    arrivals: List[Arrival],
    *,
    keep_alive_s: float = 30.0,
    min_warm: int = 0,
    max_endpoints: int = 64,
    until: float = 600.0,
) -> dict:
    """Serve ``arrivals`` under one warm-pool policy; report the split."""
    cost = LatencyTable()
    manager = _manager_for(
        policy,
        keep_alive_s=keep_alive_s,
        min_warm=min_warm,
        max_endpoints=max_endpoints,
        service_time_s=cost.exec_s,
    )
    sim = FleetSim(manager, cost, teardown_on_complete=policy == "none")
    sim.run(arrivals, until=until)
    latencies = np.array(sim.latencies, dtype=float)
    total = max(1, sum(sim.temperatures.values()))
    counters = manager.counters()
    log_text = manager.log_text()
    return {
        "policy": policy,
        "requests": int(latencies.size),
        "cold": sim.temperatures["cold"],
        "warm": sim.temperatures["warm"],
        "hot": sim.temperatures["hot"],
        "cold_ratio": sim.temperatures["cold"] / total,
        "p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "p99_ms": float(np.percentile(latencies, 99)) * 1e3,
        "mean_ms": float(latencies.mean()) * 1e3,
        "launches": counters["launches"],
        "prewarm_launches": counters["prewarm_launches"],
        "janitor_retired": counters["janitor_retired"],
        "peak_fleet": max(n for _, n in sim.fleet_timeline),
        "decision_log_digest": hashlib.sha256(
            log_text.encode()
        ).hexdigest(),
        "decision_log_lines": len(manager.decision_log()),
    }


def run_scale_to_zero(
    *,
    burst_rps: float = 8.0,
    burst_s: float = 20.0,
    idle_s: float = 120.0,
    keep_alive_s: float = 30.0,
    min_warm: int = 1,
    seed: int = 7,
) -> dict:
    """Janitor demo: a burst grows the fleet, idleness shrinks it.

    Returns the fleet-size timeline; the benchmark gate asserts the
    fleet ends at exactly ``min_warm``.
    """
    rng = np.random.default_rng(seed)
    arrivals = poisson(burst_rps, burst_s, "m0", user_id="u", rng=rng)
    cost = LatencyTable()
    manager = _manager_for(
        "lcs", keep_alive_s=keep_alive_s, min_warm=min_warm,
        max_endpoints=64, service_time_s=cost.exec_s,
    )
    sim = FleetSim(manager, cost)
    sim.run(arrivals, until=burst_s + idle_s)
    peak = max(n for _, n in sim.fleet_timeline)
    final = sim.fleet_timeline[-1][1]
    return {
        "burst_rps": burst_rps,
        "keep_alive_s": keep_alive_s,
        "min_warm": min_warm,
        "peak_fleet": peak,
        "final_fleet": final,
        "janitor_retired": manager.counters()["janitor_retired"],
        "scaled_to_floor": final == min_warm,
        "timeline": [
            (t, n) for t, n in sim.fleet_timeline if t == int(t) and int(t) % 10 == 0
        ],
    }


def run(
    duration_s: float = 240.0,
    seed: int = 2025,
    keep_alive_s: float = 30.0,
) -> dict:
    """The full sweep: four policies x two workloads + the janitor demo.

    The result carries the two gates (``BENCH_warmpool.json`` in CI):
    ``reduction`` (no-keep-alive cold ratio over predictive-LCS cold
    ratio on the Poisson workload) >= ``REDUCTION_GATE``, and
    ``scale_to_zero.scaled_to_floor``.

    Each workload's policy sweep is declared as a
    :class:`~repro.scenarios.spec.ScenarioSpec` (``warmpool_poisson_spec`` /
    ``warmpool_mmpp_spec``) and executed by the scenario runner, which
    drives :func:`run_policy` above.
    """
    from repro.scenarios.registry import warmpool_mmpp_spec, warmpool_poisson_spec
    from repro.scenarios.runner import run_scenario

    until = duration_s + 3600.0
    specs = {
        "poisson": warmpool_poisson_spec(
            duration_s=duration_s, seed=seed, keep_alive_s=keep_alive_s,
            horizon_s=until,
        ),
        "mmpp": warmpool_mmpp_spec(
            duration_s=min(duration_s, 120.0), seed=seed,
            keep_alive_s=keep_alive_s, horizon_s=until,
        ),
    }
    sweep: Dict[str, Dict[str, dict]] = {
        workload_name: run_scenario(spec).metrics["policies"]
        for workload_name, spec in specs.items()
    }
    baseline = sweep["poisson"]["none"]["cold_ratio"]
    predictive = sweep["poisson"]["lcs+predictive"]["cold_ratio"]
    reduction = baseline / predictive if predictive > 0 else float("inf")
    scale_demo = run_scale_to_zero(keep_alive_s=keep_alive_s)
    gates = {
        "cold_start_reduced": reduction >= REDUCTION_GATE,
        "janitor_scales_to_floor": scale_demo["scaled_to_floor"],
    }
    return {
        "duration_s": duration_s,
        "seed": seed,
        "keep_alive_s": keep_alive_s,
        "workloads": sweep,
        "scale_to_zero": scale_demo,
        "baseline_cold_ratio": baseline,
        "predictive_cold_ratio": predictive,
        "reduction": reduction,
        "reduction_gate": REDUCTION_GATE,
        "gates": gates,
        "pass": all(gates.values()),
    }


def decision_log_for(
    policy: str = "lcs+predictive",
    duration_s: float = 120.0,
    seed: int = 2025,
) -> str:
    """The manager's full decision log for one seeded MMPP run.

    Two calls with the same arguments must return byte-identical text
    (``test_seeded_simulation_log_is_byte_identical``).
    """
    from repro.scenarios.registry import warmpool_mmpp_spec
    from repro.scenarios.runner import build_arrivals

    spec = warmpool_mmpp_spec(duration_s=duration_s, seed=seed)
    arrivals, _sessions = build_arrivals(spec.workload, spec.seed)
    cost = LatencyTable()
    manager = _manager_for(
        policy, keep_alive_s=30.0, min_warm=0, max_endpoints=64,
        service_time_s=cost.exec_s,
    )
    sim = FleetSim(manager, cost, teardown_on_complete=policy == "none")
    sim.run(arrivals, until=duration_s + 3600.0)
    return manager.log_text()


def format_report(result: dict) -> str:
    """Render the sweep and the gate verdicts as text tables."""
    from repro.experiments.common import format_gates, format_table

    lines = [
        f"warm-pool policy sweep, keep_alive={result['keep_alive_s']:.0f}s, "
        f"seed={result['seed']}",
    ]
    for workload_name in WORKLOADS:
        rows = []
        for policy in POLICIES:
            row = result["workloads"][workload_name][policy]
            rows.append((
                policy, row["requests"], row["cold"], row["warm"], row["hot"],
                f"{100 * row['cold_ratio']:.1f}%",
                row["p50_ms"], row["p99_ms"],
                row["launches"], row["janitor_retired"],
            ))
        lines += [
            "",
            f"workload: {workload_name}",
            format_table(
                ["policy", "reqs", "cold", "warm", "hot", "cold%",
                 "p50 (ms)", "p99 (ms)", "launches", "retired"],
                rows,
            ),
        ]
    demo = result["scale_to_zero"]
    lines += [
        "",
        f"scale-to-zero: burst peak {demo['peak_fleet']} endpoints -> "
        f"{demo['final_fleet']} after idling past keep-alive "
        f"(min_warm={demo['min_warm']}, janitor retired "
        f"{demo['janitor_retired']})",
        f"cold-start reduction (none vs lcs+predictive, poisson): "
        f"{result['reduction']:.1f}x (gate >= {result['reduction_gate']:.0f}x)",
        format_gates(result),
    ]
    return "\n".join(lines)


__all__ = [
    "FleetSim",
    "LatencyTable",
    "POLICIES",
    "REDUCTION_GATE",
    "WORKLOADS",
    "decision_log_for",
    "format_report",
    "run",
    "run_policy",
    "run_scale_to_zero",
]
