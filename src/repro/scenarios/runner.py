"""Execute a :class:`~repro.scenarios.spec.ScenarioSpec` against a twin.

One entry point -- :func:`run_scenario` -- dispatches on
``spec.executor`` to four executors, each of which reproduces one of the
bespoke benchmark harnesses number-for-number:

- ``sim``       the Figure 13 shape: a multi-node testbed serving one
                model per system through :class:`WorkloadDriver`;
- ``fnpacker``  the Table III/IV shape: the mixed Poisson + session
                workload behind a routing-strategy sweep;
- ``chaos``     the functional twin under a seeded fault plan on a
                logical clock, resilient vs baseline;
- ``warmpool``  the warm-pool policy sweep in virtual time.

All four are deterministic twins (virtual or logical time).  Live
wall-clock measurement is not a scenario: ``repro run <name>`` runs the
gated harnesses and ``bench/`` the absolute end-to-end numbers.

The executors consume heavyweight machinery (numpy, both twins), so
every such import is deferred into the executor bodies: loading this
module -- e.g. to resolve ``run_scenario`` from the CLI -- stays cheap,
and the read-side siblings (:mod:`~repro.scenarios.spec`,
:mod:`~repro.scenarios.store`, :mod:`~repro.scenarios.compare`) never
pull them in at all.

Determinism contract: every metric an executor returns is a pure
function of the spec.  The ``scenario-smoke`` CI job runs one sim spec
twice and ``cmp``\\ s the manifests byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import ConfigError
from repro.scenarios.spec import FleetSpec, ScenarioSpec, WorkloadSpec


@dataclass(frozen=True)
class ScenarioResult:
    """What one execution produced: the spec, metrics, optional spans."""

    spec: ScenarioSpec
    metrics: Dict[str, Any]
    spans: Optional[list] = None


def run_scenario(spec: ScenarioSpec, *, traced: bool = False) -> ScenarioResult:
    """Execute ``spec`` and return its metrics (and spans if ``traced``)."""
    executor = _EXECUTORS.get(spec.executor)
    if executor is None:  # spec validation makes this unreachable
        raise ConfigError(f"no executor for {spec.executor!r}")
    return executor(spec, traced)


# -- arrival streams ---------------------------------------------------------------


def build_arrivals(workload: WorkloadSpec, scenario_seed: int):
    """The workload's arrival stream (and sessions, for the mix shapes).

    Returns ``(arrivals, sessions)``.  One RNG seeded with
    :meth:`WorkloadSpec.arrival_seed` drives the whole trace, warm-up
    phase first -- the Figure 13 convention, which is what keeps the
    migrated experiments byte-identical to their bespoke originals.
    """
    import numpy as np

    from repro.workloads import arrival as arr

    seed = workload.arrival_seed(scenario_seed)
    if workload.shape in ("fnpacker-mix", "fnpacker-poisson"):
        from repro.workloads.mlperf import build_fnpacker_workload

        mix = build_fnpacker_workload(
            duration_s=workload.duration_s, seed=seed
        )
        if workload.shape == "fnpacker-poisson":
            poisson_only = [
                a for a in mix.arrivals if a.user_id in ("alice", "bob")
            ]
            return poisson_only, []
        return list(mix.arrivals), list(mix.sessions)
    if workload.shape == "requests":
        return [], []  # closed-loop executors drive their own count

    rng = np.random.default_rng(seed)
    warm: List[arr.Arrival] = []
    if workload.warmup_s > 0:
        warm = arr.poisson(
            workload.warmup_rate_rps, workload.warmup_s,
            workload.model_id, user_id=workload.user_id, rng=rng,
        )
    if workload.shape == "fixed":
        main = arr.fixed_rate(
            workload.rate_rps, workload.duration_s,
            workload.model_id, user_id=workload.user_id,
        )
    elif workload.shape == "poisson":
        main = arr.poisson(
            workload.rate_rps, workload.duration_s,
            workload.model_id, user_id=workload.user_id, rng=rng,
        )
    elif workload.shape == "mmpp":
        main = arr.mmpp(
            workload.rates_rps, workload.phase_s, workload.duration_s,
            workload.model_id, user_id=workload.user_id, rng=rng,
        )
    elif workload.shape == "diurnal":
        main = arr.diurnal(
            workload.rate_rps, workload.base_rps, workload.period_s,
            workload.duration_s, workload.model_id,
            user_id=workload.user_id, rng=rng,
        )
    elif workload.shape == "burst":
        main = arr.burst(
            workload.rate_rps, workload.burst_rps,
            workload.burst_start_s, workload.burst_duration_s,
            workload.duration_s, workload.model_id,
            user_id=workload.user_id, rng=rng,
        )
    else:  # unreachable: WorkloadSpec validates the shape
        raise ConfigError(f"unknown workload shape {workload.shape!r}")
    if not warm:
        return main, []
    shifted = [
        arr.Arrival(
            time=a.time + workload.warmup_s,
            model_id=a.model_id,
            user_id=a.user_id,
        )
        for a in main
    ]
    return arr.merge_arrivals(warm, shifted), []


# -- shared helpers ----------------------------------------------------------------


def _hardware_profile(name: str):
    from repro.sgx.platform import SGX1, SGX2

    return SGX1 if name == "sgx1" else SGX2


def _node_memory(fleet: FleetSpec, servable) -> int:
    """Per-node memory: explicit MB, or multiples of the action budget."""
    from repro.experiments.common import action_budget
    from repro.sgx.epc import MB

    if fleet.node_memory_mb:
        return fleet.node_memory_mb * MB
    return fleet.node_memory_actions * action_budget(servable, fleet.tcs_count)


def _stats_metrics(stats) -> Dict[str, Any]:
    """A :class:`LatencyStats` as plain JSON-safe floats."""
    return {
        "count": stats.count,
        "mean_s": stats.mean,
        "p50_s": stats.p50,
        "p95_s": stats.p95,
        "p99_s": stats.p99,
        "max_s": stats.max,
    }


# -- executors ---------------------------------------------------------------------


def _run_sim(spec: ScenarioSpec, traced: bool) -> ScenarioResult:
    """Figure-13-shaped run: one model, one endpoint, a system sweep."""
    from repro.core.simbridge import servable_map
    from repro.experiments.common import (
        deploy_single_model,
        make_driver,
        make_testbed,
    )
    from repro.mlrt.zoo import profile
    from repro.workloads.metrics import (
        LatencyStats,
        latency_timeline,
        throughput_rps,
    )

    workload, fleet = spec.workload, spec.fleet
    arrivals, _sessions = build_arrivals(workload, spec.seed)
    until = workload.horizon_s or (
        workload.warmup_s + workload.duration_s + 3000.0
    )
    spans: List[Any] = []
    systems: Dict[str, Any] = {}
    summary: Dict[str, Any] = {}
    for system in fleet.sweep_systems():
        servable = servable_map(
            [(workload.model_id, profile(fleet.model_name), fleet.framework)]
        )[workload.model_id]
        bed = make_testbed(
            num_nodes=fleet.num_nodes,
            node_memory=_node_memory(fleet, servable),
            cores_per_node=fleet.cores_per_node,
            hardware=_hardware_profile(fleet.hardware),
            traced=traced,
        )
        deploy_single_model(
            bed, system, fleet.model_name, fleet.framework,
            tcs_count=fleet.tcs_count, model_id=workload.model_id,
        )
        driver = make_driver(bed)
        driver.submit_arrivals(arrivals)
        report = driver.run(until=until)
        measured = [
            r for r in report.results if r.submitted_at >= workload.warmup_s
        ]
        stats = LatencyStats.of(measured)
        systems[system] = {
            **_stats_metrics(stats),
            "completed": len(measured),
            "throughput_rps": throughput_rps(measured),
            "timeline": latency_timeline(
                measured, bucket_s=workload.timeline_bucket_s
            ),
        }
        summary[f"{system}.mean_s"] = stats.mean
        summary[f"{system}.p95_s"] = stats.p95
        if traced and bed.tracer is not None:
            spans.extend(bed.tracer.finished_spans())
    metrics = {
        "systems": systems,
        "submitted": len(arrivals),
        "summary": summary,
    }
    return ScenarioResult(spec=spec, metrics=metrics, spans=spans or None)


def _run_fnpacker(spec: ScenarioSpec, traced: bool) -> ScenarioResult:
    """Table-III/IV-shaped run: the mixed workload behind a router sweep."""
    from repro.core.simbridge import semirt_factory, servable_map
    from repro.experiments.common import action_budget, make_testbed
    from repro.mlrt.zoo import profile
    from repro.routing import (
        AllInOneRouter,
        FnPackerRouter,
        FnPool,
        OneToOneRouter,
    )
    from repro.serverless.action import ActionSpec
    from repro.workloads.driver import WorkloadDriver
    from repro.workloads.metrics import LatencyStats

    workload, fleet, policy = spec.workload, spec.fleet, spec.policy
    model_ids = fleet.model_ids or ("m0", "m1", "m2", "m3", "m4")
    until = workload.horizon_s or (workload.duration_s + 3000.0)
    strategies: Dict[str, Any] = {}
    summary: Dict[str, Any] = {}
    spans: List[Any] = []
    for strategy in policy.sweep_routers():
        bed = make_testbed(
            num_nodes=fleet.num_nodes,
            cores_per_node=fleet.cores_per_node,
            hardware=_hardware_profile(fleet.hardware),
            traced=traced,
        )
        prof = profile(fleet.model_name)
        pool = FnPool(name="pool", models=model_ids, memory_budget=0)
        if strategy == "FnPacker":
            router = FnPackerRouter(
                pool, idle_interval_s=policy.idle_interval_s
            )
        elif strategy == "One-to-one":
            router = OneToOneRouter(pool)
        elif strategy == "All-in-one":
            router = AllInOneRouter(pool)
        else:
            raise ConfigError(
                f"the fnpacker executor cannot run router {strategy!r}"
            )
        models = servable_map([(m, prof, fleet.framework) for m in model_ids])
        for endpoint, servable_ids in router.endpoints():
            subset = (
                {m: models[m] for m in servable_ids} if servable_ids else models
            )
            action = ActionSpec(
                name=endpoint,
                image="semirt",
                memory_budget=action_budget(next(iter(subset.values()))),
                concurrency=1,
            )
            bed.platform.deploy(action, semirt_factory(subset, bed.cost))
        arrivals, sessions = build_arrivals(workload, spec.seed)
        driver = WorkloadDriver(bed.sim, bed.controller, router)
        driver.submit_arrivals(arrivals)
        for index, session in enumerate(sessions, start=1):
            driver.submit_session(session, index=index)
        report = driver.run(until=until)
        poisson_results = [
            r for r in report.results if r.request.user_id in ("alice", "bob")
        ]
        stats = LatencyStats.of(poisson_results)
        strategies[strategy] = {
            "poisson": _stats_metrics(stats),
            "sessions": {
                f"{index}:{model_id}": result.latency
                for (index, model_id), result
                in report.session_results.items()
            },
            "cold_starts": bed.controller.cold_starts,
        }
        summary[f"{strategy}.poisson_mean_ms"] = stats.mean * 1000
        summary[f"{strategy}.cold_starts"] = bed.controller.cold_starts
        if traced and bed.tracer is not None:
            spans.extend(bed.tracer.finished_spans())
    metrics = {"strategies": strategies, "summary": summary}
    return ScenarioResult(spec=spec, metrics=metrics, spans=spans or None)


def _run_chaos(spec: ScenarioSpec, traced: bool) -> ScenarioResult:
    """Chaos-shaped run: one fault grid, resilient vs baseline modes."""
    from repro.experiments.chaos import _run_mode, _user_primary_shard
    from repro.faults.plan import FaultPlan

    assert spec.faults is not None  # ScenarioSpec validates this
    requests = spec.workload.requests
    points: List[dict] = []
    spans: Optional[list] = None
    summary: Dict[str, Any] = {}
    for index, point in enumerate(spec.faults.points()):
        if point.target == "primary":
            target_shard = _user_primary_shard(point.num_shards)
        else:
            target_shard = index % point.num_shards
        plan = FaultPlan.from_seed(
            spec.seed,
            requests,
            wire_rate=point.wire_rate,
            crash_rate=point.crash_rate,
            shard_outages=point.shard_outages,
            num_shards=point.num_shards,
            outage_duration=point.outage_duration,
            warmup=point.warmup,
            target_shard=target_shard,
        )
        modes: Dict[str, dict] = {}
        for mode in spec.policy.resilience_modes():
            metrics, mode_spans = _run_mode(
                spec.seed, requests, plan,
                resilient=mode == "resilient",
                warmup=point.warmup,
            )
            modes[mode] = metrics
            summary[f"p{index}.{mode}.availability"] = metrics["availability"]
            if traced and mode == "resilient":
                spans = mode_spans
        points.append(
            {
                "wire_rate": point.wire_rate,
                "crash_rate": point.crash_rate,
                "plan": plan.to_mapping(),
                "modes": modes,
            }
        )
    metrics = {
        "seed": spec.seed,
        "requests": requests,
        "points": points,
        "summary": summary,
    }
    return ScenarioResult(spec=spec, metrics=metrics, spans=spans)


def _run_warmpool(spec: ScenarioSpec, traced: bool) -> ScenarioResult:
    """Warm-pool-shaped run: one arrival trace, a reuse-policy sweep."""
    del traced  # the fleet simulator records no spans
    from repro.experiments.warmpool import run_policy

    workload, policy = spec.workload, spec.policy
    arrivals, _sessions = build_arrivals(workload, spec.seed)
    until = workload.horizon_s or (
        workload.warmup_s + workload.duration_s + 3600.0
    )
    policies: Dict[str, dict] = {}
    summary: Dict[str, Any] = {}
    for warm_policy in policy.warm_policies:
        row = run_policy(
            warm_policy,
            arrivals,
            keep_alive_s=policy.keep_alive_s,
            min_warm=policy.min_warm,
            max_endpoints=policy.max_endpoints,
            until=until,
        )
        policies[warm_policy] = row
        summary[f"{warm_policy}.cold_ratio"] = row["cold_ratio"]
        summary[f"{warm_policy}.p50_ms"] = row["p50_ms"]
    metrics = {
        "arrivals": len(arrivals),
        "policies": policies,
        "summary": summary,
    }
    return ScenarioResult(spec=spec, metrics=metrics, spans=None)


_EXECUTORS = {
    "sim": _run_sim,
    "fnpacker": _run_fnpacker,
    "chaos": _run_chaos,
    "warmpool": _run_warmpool,
}
