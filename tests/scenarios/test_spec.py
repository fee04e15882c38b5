"""ScenarioSpec: validation, round-trips, identity, derivation."""

import json

import pytest

from repro.errors import ConfigError
from repro.scenarios.spec import (
    EXECUTORS,
    FaultSpec,
    FleetSpec,
    PolicySpec,
    ScenarioSpec,
    WorkloadSpec,
)


def _spec(**overrides) -> ScenarioSpec:
    base = dict(name="t", executor="sim")
    base.update(overrides)
    return ScenarioSpec(**base)


def test_defaults_validate():
    spec = _spec()
    assert spec.workload.shape == "poisson"
    assert spec.fleet.sweep_systems() == ("SeSeMI",)
    assert spec.policy.sweep_routers() == ("direct",)
    assert spec.faults is None


@pytest.mark.parametrize("bad", [
    dict(name=""),
    dict(name="has space"),
    dict(name="has/slash"),
    dict(executor="kubernetes"),
])
def test_scenario_validation(bad):
    with pytest.raises(ConfigError):
        _spec(**bad)


def test_executor_prerequisites():
    assert EXECUTORS == ("sim", "fnpacker", "chaos", "warmpool")
    with pytest.raises(ConfigError):
        _spec(executor="chaos")  # no fault spec
    with pytest.raises(ConfigError):
        _spec(executor="chaos", faults=FaultSpec())  # wrong shape
    with pytest.raises(ConfigError):
        _spec(executor="warmpool")  # no warm policies
    for live in ("hotpath", "streaming"):  # live measurement is not a spec
        with pytest.raises(ConfigError, match="unknown executor"):
            _spec(
                executor=live,
                workload=WorkloadSpec(shape="requests", requests=2),
            )
    ok = _spec(
        executor="chaos",
        faults=FaultSpec(),
        workload=WorkloadSpec(shape="requests", requests=4),
    )
    assert ok.executor == "chaos"


@pytest.mark.parametrize("kwargs", [
    dict(shape="teleport"),
    dict(shape="poisson", rate_rps=0.0),
    dict(shape="mmpp", rates_rps=()),
    dict(shape="mmpp", rates_rps=(5.0,), phase_s=0.0),
    dict(shape="diurnal", rate_rps=2.0, base_rps=3.0),
    dict(shape="requests", requests=0),
    dict(duration_s=0.0),
    dict(warmup_s=10.0, warmup_rate_rps=0.0),
    dict(timeline_bucket_s=0.0),
    dict(horizon_s=-1.0),
])
def test_workload_validation(kwargs):
    with pytest.raises(ConfigError):
        WorkloadSpec(**kwargs)


def test_workload_arrival_seed_override():
    assert WorkloadSpec().arrival_seed(2025) == 2025
    assert WorkloadSpec(seed=11).arrival_seed(2025) == 11


@pytest.mark.parametrize("kwargs", [
    dict(num_nodes=0),
    dict(hardware="sgx3"),
    dict(system="Kubernetes"),
    dict(systems=("SeSeMI", "Kubernetes")),
    dict(framework="onnx"),
])
def test_fleet_validation(kwargs):
    with pytest.raises(ConfigError):
        FleetSpec(**kwargs)


def test_fault_sweep_points():
    faults = FaultSpec(sweep=(
        {"wire_rate": 0.0},
        {"wire_rate": 0.15, "crash_rate": 0.04},
    ))
    points = faults.points()
    assert [p.wire_rate for p in points] == [0.0, 0.15]
    assert points[1].crash_rate == 0.04
    assert all(p.sweep == () for p in points)
    # a spec without a sweep is its own single point
    assert FaultSpec(wire_rate=0.1).points()[0].wire_rate == 0.1


def test_fault_sweep_rejects_unknown_and_invalid_overrides():
    with pytest.raises(ConfigError):
        FaultSpec(sweep=({"teleport_rate": 0.5},))
    with pytest.raises(ConfigError):
        FaultSpec(sweep=({"wire_rate": 2.0},))  # re-validated per point


@pytest.mark.parametrize("kwargs", [
    dict(router="hash-ring"),
    dict(warm_policies=("lcs", "psychic")),
    dict(resilience="mostly"),
    dict(keep_alive_s=-1.0),
    dict(max_endpoints=0),
])
def test_policy_validation(kwargs):
    with pytest.raises(ConfigError):
        PolicySpec(**kwargs)


def test_policy_sweeps():
    policy = PolicySpec(routers=("All-in-one", "FnPacker"))
    assert policy.sweep_routers() == ("All-in-one", "FnPacker")
    assert PolicySpec(resilience="both").resilience_modes() == (
        "resilient", "baseline",
    )
    assert PolicySpec(resilience="baseline").resilience_modes() == ("baseline",)


def test_round_trip_json_preserves_identity():
    spec = _spec(
        workload=WorkloadSpec(shape="mmpp", rates_rps=(20.0, 40.0),
                              warmup_s=60.0, warmup_rate_rps=20.0),
        faults=None,
        notes="round trip",
    )
    clone = ScenarioSpec.from_json(spec.to_json())
    assert clone == spec
    assert clone.spec_hash() == spec.spec_hash()
    assert clone.run_id == spec.run_id


def test_round_trip_with_faults_restores_tuples():
    spec = _spec(
        executor="chaos",
        workload=WorkloadSpec(shape="requests", requests=8),
        faults=FaultSpec(sweep=({"wire_rate": 0.1},)),
    )
    clone = ScenarioSpec.from_dict(spec.to_dict())
    assert clone.faults.points()[0].wire_rate == 0.1
    assert clone == spec


def test_from_dict_rejects_unknown_fields():
    data = _spec().to_dict()
    data["color"] = "blue"
    with pytest.raises(ConfigError):
        ScenarioSpec.from_dict(data)
    nested = _spec().to_dict()
    nested["workload"]["teleport"] = True
    with pytest.raises(ConfigError):
        ScenarioSpec.from_dict(nested)
    # a spec file written before the live-benchmark knobs left PolicySpec
    stale = _spec().to_dict()
    stale["policy"]["max_batch"] = 4
    with pytest.raises(ConfigError, match="max_batch"):
        ScenarioSpec.from_json(json.dumps(stale))


def test_run_id_shape_and_sensitivity():
    spec = _spec(seed=7)
    assert spec.run_id.startswith("t-s7-")
    assert len(spec.run_id.split("-")[-1]) == 10
    # any spec change (including the seed) moves the hash
    assert _spec(seed=8).spec_hash() != spec.spec_hash()
    assert _spec(seed=7).spec_hash() == spec.spec_hash()


def test_with_updates_coerces_cli_strings():
    spec = _spec()
    updated = spec.with_updates({
        "seed": "7",
        "workload.duration_s": "60",
        "fleet.num_nodes": "4",
        "notes": "edited",
    })
    assert updated.seed == 7
    assert updated.workload.duration_s == 60.0
    assert updated.fleet.num_nodes == 4
    assert updated.notes == "edited"
    assert spec.seed == 2025  # the original is untouched


def test_with_updates_rejects_bad_paths_and_values():
    spec = _spec()
    with pytest.raises(ConfigError):
        spec.with_updates({"workload.teleport": "1"})
    with pytest.raises(ConfigError):
        spec.with_updates({"nope.duration_s": "1"})
    with pytest.raises(ConfigError):
        spec.with_updates({"seed": "banana"})
    with pytest.raises(ConfigError):
        spec.with_updates({"workload.duration_s": "-5"})  # re-validated
