"""The named scenario registry and the migrated experiments' specs.

Two things live here:

- **spec builders** (``fig13_latency_spec`` & co.): the declarative
  form of each bespoke benchmark harness.  The experiment modules call
  these and hand the result to :func:`~repro.scenarios.runner.run_scenario`,
  so the spec is the single source of truth for what each figure runs;
- the **named registry** (:func:`named_scenarios` / :func:`get_scenario`):
  every spec reachable as ``repro scenario run <name>``, including a few
  exploratory shapes (flash crowd, diurnal day, shard-outage storm) that
  have no bespoke harness at all -- the point of the registry is that
  new evaluations are data, not scripts.

Stdlib + :mod:`repro.scenarios.spec` only: listing scenarios must not
import numpy or either twin.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ConfigError
from repro.scenarios.spec import (
    FaultSpec,
    FleetSpec,
    PolicySpec,
    ScenarioSpec,
    WorkloadSpec,
)

#: the Figure 13 arrival trace is pinned to this seed regardless of the
#: run seed (the bespoke harness hard-coded it)
FIG13_ARRIVAL_SEED = 11

#: the chaos fault grid (wire_rate, crash_rate, shard_outages)
CHAOS_SWEEP = (
    {"wire_rate": 0.0, "crash_rate": 0.0, "shard_outages": 1},
    {"wire_rate": 0.06, "crash_rate": 0.02, "shard_outages": 1},
    {"wire_rate": 0.15, "crash_rate": 0.04, "shard_outages": 1},
)
CHAOS_QUICK_SWEEP = (CHAOS_SWEEP[0], CHAOS_SWEEP[2])


# -- migrated benchmark specs ------------------------------------------------------


def fig13_latency_spec(
    model_name: str,
    systems=("Native", "Iso-reuse", "SeSeMI"),
    duration_s: float = 240.0,
) -> ScenarioSpec:
    """Figure 13: MMPP (20<->40 rps) on 8 nodes, one model, 3 systems."""
    return ScenarioSpec(
        name=f"fig13-{model_name.lower()}-mmpp",
        executor="sim",
        seed=2025,
        workload=WorkloadSpec(
            shape="mmpp",
            rates_rps=(20.0, 40.0),
            phase_s=60.0,
            duration_s=duration_s,
            warmup_s=60.0,
            warmup_rate_rps=20.0,
            model_id="m",
            user_id="u",
            timeline_bucket_s=20.0,
            seed=FIG13_ARRIVAL_SEED,
        ),
        fleet=FleetSpec(
            num_nodes=8,
            node_memory_actions=12,
            model_name=model_name,
            systems=tuple(systems),
        ),
        notes="Figure 13: per-system latency under the MMPP trace.",
    )


def table34_spec(
    duration_s: float = 480.0,
    seed: int = 2025,
    strategies=("All-in-one", "One-to-one", "FnPacker"),
    idle_interval_s: float = 10.0,
) -> ScenarioSpec:
    """Tables III/IV: the mixed FnPacker workload, 3 routing strategies."""
    return ScenarioSpec(
        name="table3-fnpacker-mix",
        executor="fnpacker",
        seed=seed,
        workload=WorkloadSpec(shape="fnpacker-mix", duration_s=duration_s),
        fleet=FleetSpec(
            num_nodes=8,
            model_name="RSNET",
            model_ids=("m0", "m1", "m2", "m3", "m4"),
        ),
        policy=PolicySpec(
            routers=tuple(strategies), idle_interval_s=idle_interval_s
        ),
        notes="Tables III/IV: Poisson + session mix behind a router sweep.",
    )


def chaos_spec(
    seed: int = 2025, requests: int = 40, quick: bool = False
) -> ScenarioSpec:
    """The chaos sweep: fault rate vs availability, both modes."""
    if quick:
        requests = min(requests, 24)
    return ScenarioSpec(
        name="chaos-quick" if quick else "chaos-sweep",
        executor="chaos",
        seed=seed,
        workload=WorkloadSpec(
            shape="requests", requests=requests, duration_s=1.0
        ),
        faults=FaultSpec(
            num_shards=2,
            target="primary",
            sweep=CHAOS_QUICK_SWEEP if quick else CHAOS_SWEEP,
        ),
        policy=PolicySpec(resilience="both"),
        notes="Deterministic fault grid vs the resilience layer.",
    )


def warmpool_poisson_spec(
    duration_s: float = 240.0,
    seed: int = 2025,
    keep_alive_s: float = 30.0,
    horizon_s: float = 0.0,
) -> ScenarioSpec:
    """Warm-pool sweep on the Table III Poisson mix (four policies)."""
    return ScenarioSpec(
        name="warmpool-poisson",
        executor="warmpool",
        seed=seed,
        workload=WorkloadSpec(
            shape="fnpacker-poisson", duration_s=duration_s,
            horizon_s=horizon_s,
        ),
        policy=PolicySpec(
            warm_policies=("none", "lcs", "mru", "lcs+predictive"),
            keep_alive_s=keep_alive_s,
        ),
        notes="Cold-start elimination across reuse policies (Poisson).",
    )


def warmpool_mmpp_spec(
    duration_s: float = 120.0,
    seed: int = 2025,
    keep_alive_s: float = 30.0,
    horizon_s: float = 0.0,
) -> ScenarioSpec:
    """Warm-pool sweep on the Figure 13 flash-crowd MMPP trace."""
    return ScenarioSpec(
        name="warmpool-mmpp",
        executor="warmpool",
        seed=seed,
        workload=WorkloadSpec(
            shape="mmpp",
            rates_rps=(20.0, 40.0),
            phase_s=60.0,
            duration_s=duration_s,
            warmup_s=30.0,
            warmup_rate_rps=20.0,
            model_id="m0",
            user_id="u",
            horizon_s=horizon_s,
        ),
        policy=PolicySpec(
            warm_policies=("none", "lcs", "mru", "lcs+predictive"),
            keep_alive_s=keep_alive_s,
        ),
        notes="Cold-start elimination across reuse policies (MMPP).",
    )


# -- exploratory specs (registry-only: no bespoke harness exists) ------------------


def _scenario_smoke_spec() -> ScenarioSpec:
    """The CI determinism probe: tiny, deterministic, runs in seconds."""
    return ScenarioSpec(
        name="scenario-smoke",
        executor="sim",
        seed=2025,
        workload=WorkloadSpec(
            shape="poisson", rate_rps=2.0, duration_s=30.0, model_id="m",
        ),
        fleet=FleetSpec(num_nodes=2, model_name="MBNET", system="SeSeMI"),
        notes="CI gate: same spec + seed twice -> byte-identical manifests.",
    )


def _flash_crowd_spec() -> ScenarioSpec:
    """A flash crowd against the warm pool: base load + a 10x burst."""
    return ScenarioSpec(
        name="flash-crowd",
        executor="warmpool",
        seed=2025,
        workload=WorkloadSpec(
            shape="burst",
            rate_rps=2.0,
            burst_rps=20.0,
            burst_start_s=60.0,
            burst_duration_s=30.0,
            duration_s=180.0,
            model_id="m0",
            user_id="u",
        ),
        policy=PolicySpec(
            warm_policies=("none", "lcs", "lcs+predictive"),
            keep_alive_s=30.0,
        ),
        notes="How much of a 10x flash crowd lands warm, per policy.",
    )


def _diurnal_day_spec() -> ScenarioSpec:
    """A compressed diurnal cycle (one 'day' in 10 minutes)."""
    return ScenarioSpec(
        name="diurnal-day",
        executor="warmpool",
        seed=2025,
        workload=WorkloadSpec(
            shape="diurnal",
            rate_rps=12.0,
            base_rps=1.0,
            period_s=600.0,
            duration_s=600.0,
            model_id="m0",
            user_id="u",
        ),
        policy=PolicySpec(
            warm_policies=("lcs", "lcs+predictive"), keep_alive_s=30.0
        ),
        notes="Does the predictor track a slow sinusoidal rate swing?",
    )


def _shard_outage_storm_spec() -> ScenarioSpec:
    """Chaos with repeated KeyService shard outages and no wire faults."""
    return ScenarioSpec(
        name="shard-outage-storm",
        executor="chaos",
        seed=2025,
        workload=WorkloadSpec(shape="requests", requests=24, duration_s=1.0),
        faults=FaultSpec(
            shard_outages=2,
            num_shards=2,
            outage_duration=6,
            target="primary",
        ),
        policy=PolicySpec(resilience="both"),
        notes="Availability under back-to-back shard crash/restart cycles.",
    )


#: name -> zero-argument spec builder (builders, not instances, so the
#: registry import stays instant and each lookup re-validates)
_REGISTRY: Dict[str, Callable[[], ScenarioSpec]] = {
    "fig13-dsnet-mmpp": lambda: fig13_latency_spec("DSNET"),
    "fig13-rsnet-mmpp": lambda: fig13_latency_spec("RSNET"),
    "table3-fnpacker-mix": table34_spec,
    "chaos-quick": lambda: chaos_spec(quick=True),
    "chaos-sweep": chaos_spec,
    "warmpool-poisson": warmpool_poisson_spec,
    "warmpool-mmpp": warmpool_mmpp_spec,
    "scenario-smoke": _scenario_smoke_spec,
    "flash-crowd": _flash_crowd_spec,
    "diurnal-day": _diurnal_day_spec,
    "shard-outage-storm": _shard_outage_storm_spec,
}


def scenario_names() -> List[str]:
    """Every registered scenario name, sorted."""
    return sorted(_REGISTRY)


def named_scenarios() -> Dict[str, ScenarioSpec]:
    """All registered scenarios, built fresh."""
    return {name: _REGISTRY[name]() for name in scenario_names()}


def get_scenario(name: str) -> ScenarioSpec:
    """The registered spec for ``name`` (:class:`ConfigError` if absent)."""
    builder = _REGISTRY.get(name)
    if builder is None:
        known = ", ".join(scenario_names())
        raise ConfigError(f"no scenario named {name!r} (known: {known})")
    return builder()
