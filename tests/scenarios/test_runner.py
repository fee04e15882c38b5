"""Scenario runner: arrival streams, executors, determinism, registry.

Anything that runs a twin here uses deliberately tiny workloads; the
full-size byte-identity checks live in CI (``scenario-smoke``) and in
the migrated experiments themselves.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.scenarios.registry import get_scenario, named_scenarios, scenario_names
from repro.scenarios.runner import build_arrivals, run_scenario
from repro.scenarios.spec import (
    EXECUTORS,
    FaultSpec,
    FleetSpec,
    PolicySpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.workloads.arrival import merge_arrivals, mmpp, poisson


def _digest(obj) -> str:
    def fallback(value):
        try:
            return float(value)
        except (TypeError, ValueError):
            return str(value)

    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=fallback).encode()
    ).hexdigest()


# -- arrival streams ---------------------------------------------------------------


def test_build_arrivals_matches_fig13_convention():
    """Warm-up first, main stream shifted -- same RNG, same trace."""
    workload = WorkloadSpec(
        shape="mmpp", rates_rps=(20.0, 40.0), phase_s=60.0, duration_s=60.0,
        warmup_s=60.0, warmup_rate_rps=20.0, model_id="m", user_id="u",
        seed=11,
    )
    got, sessions = build_arrivals(workload, scenario_seed=2025)
    rng = np.random.default_rng(11)  # workload seed wins over scenario seed
    warm = poisson(20.0, 60.0, "m", user_id="u", rng=rng)
    burst = mmpp((20.0, 40.0), 60.0, 60.0, "m", user_id="u", rng=rng)
    shifted = [
        type(a)(time=a.time + 60.0, model_id=a.model_id, user_id=a.user_id)
        for a in burst
    ]
    want = merge_arrivals(warm, shifted)
    assert sessions == []
    assert [a.time for a in got] == [a.time for a in want]


def test_build_arrivals_without_warmup_is_unshifted():
    workload = WorkloadSpec(shape="poisson", rate_rps=5.0, duration_s=30.0)
    got, _ = build_arrivals(workload, scenario_seed=3)
    want = poisson(5.0, 30.0, "m", user_id="user",
                   rng=np.random.default_rng(3))
    assert [a.time for a in got] == [a.time for a in want]


@pytest.mark.parametrize("workload", [
    WorkloadSpec(shape="fixed", rate_rps=4.0, duration_s=10.0),
    WorkloadSpec(shape="diurnal", rate_rps=10.0, base_rps=1.0,
                 period_s=60.0, duration_s=60.0),
    WorkloadSpec(shape="burst", rate_rps=2.0, burst_rps=20.0,
                 burst_start_s=5.0, burst_duration_s=5.0, duration_s=30.0),
])
def test_build_arrivals_shapes_sorted_and_bounded(workload):
    arrivals, sessions = build_arrivals(workload, scenario_seed=1)
    assert sessions == []
    assert arrivals, workload.shape
    times = [a.time for a in arrivals]
    assert times == sorted(times)
    horizon = workload.warmup_s + workload.duration_s
    assert all(0 <= t < horizon for t in times)


def test_build_arrivals_fnpacker_poisson_filters_sessions():
    mix_wl = WorkloadSpec(shape="fnpacker-mix", duration_s=120.0)
    arrivals, sessions = build_arrivals(mix_wl, scenario_seed=2025)
    assert sessions  # the interactive sessions of Table IV
    poisson_wl = WorkloadSpec(shape="fnpacker-poisson", duration_s=120.0)
    only, no_sessions = build_arrivals(poisson_wl, scenario_seed=2025)
    assert no_sessions == []
    assert {a.user_id for a in only} <= {"alice", "bob"}
    assert len(only) == sum(
        1 for a in arrivals if a.user_id in ("alice", "bob")
    )


def test_build_arrivals_requests_shape_is_empty():
    workload = WorkloadSpec(shape="requests", requests=9, duration_s=1.0)
    assert build_arrivals(workload, scenario_seed=0) == ([], [])


# -- executors ---------------------------------------------------------------------


SMOKE = ScenarioSpec(
    name="runner-smoke",
    executor="sim",
    workload=WorkloadSpec(shape="poisson", rate_rps=2.0, duration_s=30.0),
    fleet=FleetSpec(num_nodes=2, model_name="MBNET"),
)


def test_sim_executor_is_deterministic():
    a = run_scenario(SMOKE)
    b = run_scenario(SMOKE)
    assert _digest(a.metrics) == _digest(b.metrics)
    system = a.metrics["systems"]["SeSeMI"]
    assert system["completed"] > 0
    assert system["completed"] <= a.metrics["submitted"]
    assert a.metrics["summary"]["SeSeMI.mean_s"] == system["mean_s"]
    assert a.spans is None


def test_sim_executor_traced_collects_spans():
    result = run_scenario(SMOKE, traced=True)
    assert result.spans
    assert all(hasattr(span, "events") for span in result.spans)


def test_chaos_executor_matches_bespoke_run_mode():
    from repro.experiments.chaos import _run_mode, _user_primary_shard
    from repro.faults.plan import FaultPlan

    spec = ScenarioSpec(
        name="chaos-mini",
        executor="chaos",
        seed=5,
        workload=WorkloadSpec(shape="requests", requests=6, duration_s=1.0),
        faults=FaultSpec(wire_rate=0.15, crash_rate=0.04, shard_outages=1),
        policy=PolicySpec(resilience="resilient"),
    )
    result = run_scenario(spec)
    point, = result.metrics["points"]
    plan = FaultPlan.from_seed(
        5, 6, wire_rate=0.15, crash_rate=0.04, shard_outages=1,
        num_shards=2, outage_duration=8, warmup=2,
        target_shard=_user_primary_shard(2),
    )
    want, _spans = _run_mode(5, 6, plan, resilient=True, warmup=2)
    assert point["modes"]["resilient"] == want
    assert result.metrics["summary"]["p0.resilient.availability"] == (
        want["availability"]
    )


def test_warmpool_executor_matches_bespoke_run_policy():
    from repro.experiments.warmpool import run_policy

    spec = ScenarioSpec(
        name="warm-mini",
        executor="warmpool",
        seed=9,
        workload=WorkloadSpec(shape="poisson", rate_rps=1.0, duration_s=40.0,
                              model_id="m0"),
        policy=PolicySpec(warm_policies=("none", "lcs"), keep_alive_s=20.0),
    )
    result = run_scenario(spec)
    arrivals, _ = build_arrivals(spec.workload, spec.seed)
    want = run_policy("lcs", arrivals, keep_alive_s=20.0, min_warm=0,
                      max_endpoints=64, until=40.0 + 3600.0)
    assert result.metrics["policies"]["lcs"] == want
    assert result.metrics["arrivals"] == len(arrivals)
    assert set(result.metrics["policies"]) == {"none", "lcs"}
    assert result.metrics["summary"]["none.cold_ratio"] == 1.0


# -- registry ----------------------------------------------------------------------


def test_registry_names_build_matching_specs():
    names = scenario_names()
    assert "fig13-dsnet-mmpp" in names
    assert "table3-fnpacker-mix" in names
    assert "chaos-quick" in names
    assert "warmpool-poisson" in names
    assert "hotpath-2user" not in names  # live lanes: `repro run`, bench/
    assert "stream-chat" not in names
    assert "scenario-smoke" in names
    for name, spec in named_scenarios().items():
        assert spec.name == name
        assert spec.executor in EXECUTORS
        assert spec.notes  # every registered spec documents itself


def test_registry_specs_round_trip_and_rebuild_identically():
    for name in scenario_names():
        spec = get_scenario(name)
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert get_scenario(name).run_id == spec.run_id  # builders are pure


def test_get_scenario_unknown_name():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="no scenario named"):
        get_scenario("fig99")


def test_fnpacker_metrics_do_not_depend_on_the_hash_seed():
    """Placement picks a home invoker per action name; ``hash(str)`` is
    salted per process, so the digest must be a process-stable one or
    Tables III/IV differ from one interpreter to the next."""
    code = (
        "import json\n"
        "from repro.scenarios.registry import get_scenario\n"
        "from repro.scenarios.runner import run_scenario\n"
        "metrics = run_scenario(get_scenario('table3-fnpacker-mix')).metrics\n"
        "print(json.dumps(metrics, sort_keys=True))\n"
    )
    outputs = [
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONHASHSEED=seed),
        ).stdout
        for seed in ("0", "3")
    ]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["strategies"]["One-to-one"]["cold_starts"] > 0
