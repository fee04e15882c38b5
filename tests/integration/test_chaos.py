"""Chaos integration: shard crash mid-workload, determinism, recovery."""

import json

import numpy as np
import pytest

from repro.experiments import chaos
from repro.faults.plan import FaultKind, FaultPlan


@pytest.fixture(scope="module")
def outage_runs():
    """One shard-outage plan run in both modes (shared across tests).

    The outage targets the chaos user's *primary* shard, so KeyService
    failover is on the critical path of every request during the outage
    (the key cache is disabled in the chaos harness).
    """
    requests = 18
    plan = FaultPlan.from_seed(
        13,
        requests,
        shard_outages=1,
        num_shards=2,
        outage_duration=6,
        target_shard=chaos._user_primary_shard(),
    )
    resilient, resilient_spans = chaos._run_mode(13, requests, plan, resilient=True)
    baseline, _ = chaos._run_mode(13, requests, plan, resilient=False)
    return plan, resilient, resilient_spans, baseline


def test_shard_crash_mid_workload_keeps_availability(outage_runs):
    """Failover + retry keep availability above 95% through the outage."""
    _, resilient, _, _ = outage_runs
    assert resilient["availability"] >= 0.95


def test_resilience_disabled_shows_visible_failures(outage_runs):
    """Without failover, the outage costs roughly its duration in errors."""
    _, resilient, _, baseline = outage_runs
    assert baseline["failed"] >= 3
    assert baseline["availability"] < resilient["availability"]


def test_outage_recovery_is_visible_in_the_trace(outage_runs):
    """The span dump shows the fault and the recovery machinery."""
    plan, resilient, spans, _ = outage_runs
    events = [event["name"] for span in spans for event in span.events]
    assert "fault:shard_crash" in events
    assert "fault:shard_restart" in events
    assert "keyservice_failover" in events
    assert "keyservice_reattest" in events
    assert resilient["failovers"] >= 1
    # the plan's schedule is what actually fired
    scheduled = [e.kind for e in plan.schedule]
    assert scheduled == [FaultKind.SHARD_CRASH, FaultKind.SHARD_RESTART]


def test_chaos_sweep_is_byte_identical_across_runs():
    """Same seed => the exact JSON the CI smoke job compares."""
    first = chaos.run(seed=5, requests=12, quick=True)
    second = chaos.run(seed=5, requests=12, quick=True)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_quick_sweep_runs_both_modes_over_primary_shard_plans():
    """The quick grid is the first and last fault point, each one plan
    with one outage of the user's primary shard, capped at 24 requests."""
    result = chaos.run(seed=5, requests=30, quick=True)
    assert result["requests"] == chaos.QUICK_REQUESTS == 24
    assert [(p["wire_rate"], p["crash_rate"]) for p in result["points"]] == [
        (0.0, 0.0), (0.15, 0.04),
    ]
    plan = FaultPlan.from_seed(
        5, 24, wire_rate=0.15, crash_rate=0.04, shard_outages=1,
        num_shards=2, outage_duration=8, warmup=2,
        target_shard=chaos._user_primary_shard(2),
    )
    last = result["points"][-1]
    assert last["plan"] == plan.to_mapping()
    for mode in ("resilient", "baseline"):
        want, _spans = chaos._run_mode(5, 24, plan, resilient=mode == "resilient")
        assert last["modes"][mode] == want


def test_session_relaunches_cold_after_enclave_crash(tiny_model, tiny_input):
    """A dead SeMIRT enclave is replaced on the next request."""
    from repro.core.deployment import SeSeMIEnvironment

    env = SeSeMIEnvironment()
    env.deploy(tiny_model, "m", owner="owner").grant("user")
    with env.session("user", "m") as session:
        before = session.infer(tiny_input)
        session.semirt.enclave.destroy()  # simulated mid-flight crash
        after = session.infer(tiny_input)  # relaunches cold, same result
        assert np.allclose(before, after, atol=1e-5)
        assert session.semirt.enclave.alive
