"""Warm-pool benchmark: cold-start elimination across reuse policies.

Three fleet policies serve the same seeded workloads on the paper's
platform -- :func:`~repro.experiments.common.make_testbed`'s Controller,
SeSeMI containers (:class:`~repro.core.simbridge.SemirtSimActor`) and
Figure 13's cluster of eight nodes, each with memory for twelve
containers -- through the Controller's own
:class:`~repro.warmpool.manager.WarmPoolManager`:

- **none** -- no keep-alive: every container is torn down the moment
  its last request completes, so every arrival that finds no live
  container pays the full cold start (sandbox init, enclave launch, key
  retrieval);
- **lcs** -- keep-alive with least-recently-used reuse: every reuse
  refreshes the container closest to its keep-alive deadline,
  maximising the warm pool;
- **mru** -- keep-alive with most-recently-used reuse (OpenWhisk's): the
  idle tail ages out and the janitor retires it, trading warm hits for a
  smaller fleet.

Two workloads: the Table III/IV FnPacker mix's Poisson streams (two
2 rps streams to two models) and the Figure 13 MMPP trace (mean rate
flipping 20 <-> 40 rps), both seeded.  Every model is TVM-MBNET; the
cold / warm / hot split is what the containers measured, and latencies
are the platform's end to end (controller, placement, queueing).

The simulation is deterministic end to end, so the same seed produces a
byte-identical warm-pool decision log -- ``decision_log_digest`` in the
result, pinned by ``tests/experiments/test_warmpool_experiment.py`` --
and ``repro run warmpool`` exits 1 below the >= 3x cold-start-reduction
floor (CI keeps the result as ``BENCH_warmpool.json``).

A third scenario demonstrates scale-to-zero: a burst grows the fleet,
traffic stops, and the janitor shrinks it to the ``min_warm`` floor
(the fleet-size timeline is in the result).
"""

from __future__ import annotations

import hashlib
from functools import partial
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.simbridge import SemirtSimActor, servable_map
from repro.experiments.common import action_budget, make_driver, make_testbed
from repro.experiments.fig13 import NUM_NODES, mmpp_trace
from repro.mlrt.zoo import profile
from repro.serverless.action import ActionSpec
from repro.serverless.controller import PlatformConfig
from repro.warmpool.manager import WarmPoolConfig
from repro.workloads.arrival import Arrival, poisson
from repro.workloads.mlperf import build_fnpacker_workload

POLICIES = ("none", "lcs", "mru")
WORKLOADS = ("poisson", "mmpp")

#: cold-start reduction ``run()`` gates on (LCS vs none)
REDUCTION_GATE = 3.0

MODEL, FRAMEWORK = "MBNET", "tvm"
#: Figure 13's node size, in container budgets: the fleet is bounded by
#: memory at ``NUM_NODES * NODE_CONTAINERS``
NODE_CONTAINERS = 12


def _warm_pool(policy: str, keep_alive_s: float, min_warm: int) -> WarmPoolConfig:
    if policy == "none":
        return WarmPoolConfig(keep_alive_s=0.0, min_warm=0)
    return WarmPoolConfig(strategy=policy, keep_alive_s=keep_alive_s, min_warm=min_warm)


def _serve(
    policy: str,
    arrivals: Sequence[Arrival],
    *,
    keep_alive_s: float,
    min_warm: int,
    until: float,
):
    """Serve ``arrivals`` on Figure 13's cluster under one policy.

    Returns the testbed, the deployment's warm pool and the results.
    """
    models = servable_map(
        [(m, profile(MODEL), FRAMEWORK) for m in sorted({a.model_id for a in arrivals})]
    )
    budget = action_budget(next(iter(models.values())))
    bed = make_testbed(
        num_nodes=NUM_NODES,
        node_memory=NODE_CONTAINERS * budget,
        config=PlatformConfig(warm_pool=_warm_pool(policy, keep_alive_s, min_warm)),
    )
    spec = ActionSpec(name="ep", image="semirt-tvm", memory_budget=budget)
    bed.platform.deploy(spec, partial(SemirtSimActor, models, bed.cost))
    driver = make_driver(bed)
    driver.submit_arrivals(arrivals)
    report = driver.run(until=until)
    return bed, bed.controller.deployment("ep").warm_pool, report.results


def run_policy(
    policy: str,
    arrivals: List[Arrival],
    *,
    keep_alive_s: float = 30.0,
    min_warm: int = 0,
    until: float = 600.0,
) -> dict:
    """Serve ``arrivals`` under one warm-pool policy; report the split."""
    bed, pool, results = _serve(
        policy, arrivals, keep_alive_s=keep_alive_s, min_warm=min_warm, until=until
    )
    latencies = np.array([r.latency for r in results], dtype=float)
    kinds = [r.kind for r in results]
    counters = pool.counters()
    log_text = pool.log_text()
    return {
        "policy": policy,
        "requests": len(results),
        "cold": kinds.count("cold"),
        "warm": kinds.count("warm"),
        "hot": kinds.count("hot"),
        "cold_ratio": kinds.count("cold") / max(1, len(results)),
        "p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "p99_ms": float(np.percentile(latencies, 99)) * 1e3,
        "mean_ms": float(latencies.mean()) * 1e3,
        "launches": counters["launches"],
        "janitor_retired": counters["janitor_retired"],
        "peak_fleet": int(_fleet(bed).peak),
        "decision_log_digest": hashlib.sha256(log_text.encode()).hexdigest(),
        "decision_log_lines": len(pool.decision_log()),
    }


def _fleet(bed):
    """The Controller's live-container count, one sample per change."""
    return bed.controller.metrics.time_series("containers.active")


def _mmpp_trace(duration_s: float, seed: int) -> List[Arrival]:
    """The Figure 13 trace with a 30 s warm-up, drawn from ``seed``."""
    return mmpp_trace(duration_s, warmup_s=30.0, seed=seed, model_id="m0")


def _sampled(samples: Sequence[Tuple[float, float]], times) -> List[Tuple[float, int]]:
    """The step function ``samples`` read at each of ``times`` (ascending)."""
    out, level, index = [], 0, 0
    for t in times:
        while index < len(samples) and samples[index][0] <= t:
            level = samples[index][1]
            index += 1
        out.append((t, int(level)))
    return out


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

    Returns the fleet-size timeline (every 10 s); the benchmark gate
    asserts the fleet ends at exactly ``min_warm``.
    """
    rng = np.random.default_rng(seed)
    arrivals = poisson(burst_rps, burst_s, "m0", user_id="u", rng=rng)
    until = burst_s + idle_s
    bed, pool, _ = _serve(
        "lcs", arrivals, keep_alive_s=keep_alive_s, min_warm=min_warm, until=until
    )
    fleet = _fleet(bed)
    final = int(fleet.last)
    return {
        "burst_rps": burst_rps,
        "keep_alive_s": keep_alive_s,
        "min_warm": min_warm,
        "peak_fleet": int(fleet.peak),
        "final_fleet": final,
        "janitor_retired": pool.counters()["janitor_retired"],
        "scaled_to_floor": final == min_warm,
        "timeline": _sampled(fleet.samples, [float(t) for t in range(0, int(until), 10)]),
    }


def run(
    duration_s: float = 240.0,
    seed: int = 2025,
    keep_alive_s: float = 30.0,
) -> dict:
    """The full sweep: three policies x two workloads + the janitor demo.

    The result carries the two gates (``BENCH_warmpool.json`` in CI):
    ``reduction`` (no-keep-alive cold ratio over LCS cold ratio on the
    Poisson workload) >= ``REDUCTION_GATE``, and
    ``scale_to_zero.scaled_to_floor``.
    """
    until = duration_s + 3600.0
    traces = {
        # the Table III/IV mix's two Poisson streams, not its sessions
        "poisson": build_fnpacker_workload(duration_s=duration_s, seed=seed).arrivals,
        "mmpp": _mmpp_trace(min(duration_s, 120.0), seed),
    }
    sweep: Dict[str, Dict[str, dict]] = {
        workload_name: {
            policy: run_policy(
                policy, arrivals, keep_alive_s=keep_alive_s, until=until
            )
            for policy in POLICIES
        }
        for workload_name, arrivals in traces.items()
    }
    baseline = sweep["poisson"]["none"]["cold_ratio"]
    lcs = sweep["poisson"]["lcs"]["cold_ratio"]
    reduction = baseline / lcs if lcs > 0 else float("inf")
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
        "lcs_cold_ratio": lcs,
        "reduction": reduction,
        "reduction_gate": REDUCTION_GATE,
        "gates": gates,
        "pass": all(gates.values()),
    }


def decision_log_for(
    policy: str = "lcs",
    duration_s: float = 120.0,
    seed: int = 2025,
) -> str:
    """The warm pool's full decision log for one seeded MMPP run.

    Two calls with the same arguments must return byte-identical text
    (``test_seeded_simulation_log_is_byte_identical``).
    """
    _, pool, _ = _serve(
        policy,
        _mmpp_trace(duration_s, seed),
        keep_alive_s=30.0,
        min_warm=0,
        until=duration_s + 3600.0,
    )
    return pool.log_text()


def format_report(result: dict) -> str:
    """Render the sweep and the gate verdicts as text tables."""
    from repro.experiments.common import format_gates, format_table

    lines = [
        f"warm-pool policy sweep on Figure 13's cluster ({NUM_NODES} nodes x "
        f"{NODE_CONTAINERS} containers, TVM-{MODEL}), "
        f"keep_alive={result['keep_alive_s']:.0f}s, seed={result['seed']}",
    ]
    for workload_name in WORKLOADS:
        rows = []
        for policy in POLICIES:
            row = result["workloads"][workload_name][policy]
            rows.append((
                policy, row["requests"], row["cold"], row["warm"], row["hot"],
                f"{100 * row['cold_ratio']:.1f}%",
                row["p50_ms"], row["p99_ms"],
                row["launches"], row["janitor_retired"], row["peak_fleet"],
            ))
        lines += [
            "",
            f"workload: {workload_name}",
            format_table(
                ["policy", "reqs", "cold", "warm", "hot", "cold%",
                 "p50 (ms)", "p99 (ms)", "launches", "retired", "peak"],
                rows,
            ),
        ]
    demo = result["scale_to_zero"]
    lines += [
        "",
        f"scale-to-zero: burst peak {demo['peak_fleet']} containers -> "
        f"{demo['final_fleet']} after idling past keep-alive "
        f"(min_warm={demo['min_warm']}, janitor retired "
        f"{demo['janitor_retired']})",
        f"cold-start reduction (none vs lcs, poisson): "
        f"{result['reduction']:.1f}x (gate >= {result['reduction_gate']:.0f}x)",
        format_gates(result),
    ]
    return "\n".join(lines)


__all__ = [
    "POLICIES",
    "REDUCTION_GATE",
    "WORKLOADS",
    "decision_log_for",
    "format_report",
    "run",
    "run_policy",
    "run_scale_to_zero",
]
