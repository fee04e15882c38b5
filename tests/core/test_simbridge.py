"""Simulation actors: invocation paths, EPC accounting, baselines."""

import pytest

from repro.core.costs import CostModel
from repro.core.simbridge import (
    IsoReuseSimActor,
    NativeSimActor,
    SemirtSimActor,
    UntrustedSimActor,
    servable_map,
)
from repro.core.stages import Stage
from repro.errors import InvocationError
from repro.experiments.common import action_budget, make_driver, make_testbed
from repro.mlrt.zoo import profile
from repro.serverless.action import ActionSpec
from repro.workloads.arrival import Arrival

MB = 1024 * 1024


def models_for(*names, framework="tvm"):
    return servable_map([(n.lower(), profile(n), framework) for n in names])


def run_sequence(factory, arrivals, budget=None, concurrency=1):
    bed = make_testbed(num_nodes=1)
    models = models_for("MBNET")
    budget = budget or action_budget(models["mbnet"], concurrency)
    spec = ActionSpec(name="ep", image="test", memory_budget=budget,
                      concurrency=concurrency)
    bed.platform.deploy(spec, factory(models, bed.cost))
    driver = make_driver(bed)
    driver.submit_arrivals(arrivals)
    report = driver.run(until=2000)
    return bed, sorted(report.results, key=lambda r: r.submitted_at)


def spaced(count, gap=20.0, model="mbnet", user="u"):
    return [Arrival(time=i * gap, model_id=model, user_id=user) for i in range(count)]


def test_semirt_paths_cold_then_hot():
    factory = lambda m, c: (lambda: SemirtSimActor(m, c))
    bed, results = run_sequence(factory, spaced(3))
    assert [r.kind for r in results] == ["cold", "hot", "hot"]
    assert Stage.ENCLAVE_INIT.value in results[0].stage_seconds
    assert Stage.ENCLAVE_INIT.value not in results[1].stage_seconds
    assert Stage.KEY_RETRIEVAL.value not in results[1].stage_seconds


def test_semirt_user_switch_refetches_keys_cheaply():
    factory = lambda m, c: (lambda: SemirtSimActor(m, c))
    arrivals = [
        Arrival(time=0.0, model_id="mbnet", user_id="alice"),
        Arrival(time=30.0, model_id="mbnet", user_id="bob"),
    ]
    bed, results = run_sequence(factory, arrivals)
    assert results[1].kind == "warm"
    refetch = results[1].stage_seconds[Stage.KEY_RETRIEVAL.value]
    first = results[0].stage_seconds[Stage.KEY_RETRIEVAL.value]
    assert refetch < first / 3  # session reuse: one RPC, no re-attestation


def test_iso_reuse_reloads_model_every_request():
    factory = lambda m, c: (lambda: IsoReuseSimActor(m, c))
    bed, results = run_sequence(factory, spaced(3))
    for result in results:
        assert Stage.MODEL_LOADING.value in result.stage_seconds
        assert Stage.RUNTIME_INIT.value in result.stage_seconds
    # ... but keys are cached after the first request.
    assert Stage.KEY_RETRIEVAL.value not in results[2].stage_seconds


def test_native_launches_enclave_every_request():
    factory = lambda m, c: (lambda: NativeSimActor(m, c))
    bed, results = run_sequence(factory, spaced(3))
    for result in results:
        assert result.stage_seconds[Stage.ENCLAVE_INIT.value] > 0
        assert Stage.KEY_RETRIEVAL.value in result.stage_seconds
    # Native frees its per-request enclave: nothing stays committed.
    assert bed.platform.nodes[0].sgx.epc.committed_bytes == 0


def test_semirt_keeps_enclave_committed_until_reaped():
    bed = make_testbed(num_nodes=1)
    models = models_for("MBNET")
    spec = ActionSpec(
        name="ep", image="t",
        memory_budget=action_budget(models["mbnet"]), concurrency=1,
    )
    bed.platform.deploy(spec, lambda: SemirtSimActor(models, bed.cost))
    driver = make_driver(bed)
    driver.submit_arrivals(spaced(2))
    driver.run(until=60)  # inside the keep-alive window
    assert bed.platform.nodes[0].sgx.epc.committed_bytes >= 0x4000000
    bed.sim.run()  # let the keep-alive reaper fire
    assert bed.platform.nodes[0].sgx.epc.committed_bytes == 0


def test_untrusted_has_no_sgx_stages():
    factory = lambda m, c: (lambda: UntrustedSimActor(m, c))
    bed, results = run_sequence(factory, spaced(2))
    for result in results:
        assert Stage.ENCLAVE_INIT.value not in result.stage_seconds
        assert Stage.KEY_RETRIEVAL.value not in result.stage_seconds
    assert Stage.MODEL_LOADING.value in results[0].stage_seconds
    assert Stage.MODEL_LOADING.value not in results[1].stage_seconds  # cached


def test_untrusted_inference_charge_includes_the_wait_for_a_core():
    """On a one-core node simultaneous requests queue for the core; each
    request's ``model_inference`` charge is its span, wait included."""
    bed = make_testbed(num_nodes=1, cores_per_node=1, traced=True)
    models = models_for("MBNET")
    spec = ActionSpec(name="ep", image="t", concurrency=4,
                      memory_budget=action_budget(models["mbnet"], 4))
    bed.platform.deploy(spec, lambda: UntrustedSimActor(models, bed.cost))
    driver = make_driver(bed)
    driver.submit_arrivals([Arrival(time=0.0, model_id="mbnet", user_id="u")] * 4)
    report = driver.run(until=2000)
    stage = Stage.MODEL_INFERENCE.value
    charged = sorted(r.stage_seconds[stage] for r in report.results)
    spans = sorted(
        s.duration for s in bed.tracer.finished_spans() if s.name == f"stage:{stage}"
    )
    assert len(charged) == 4 and charged[-1] > charged[0]  # someone waited
    assert charged == pytest.approx(spans)


def test_latency_ordering_between_systems():
    """Steady-state latency: SeSeMI < Iso-reuse < Native."""
    def steady(factory):
        _, results = run_sequence(factory, spaced(4))
        return results[-1].latency

    sesemi = steady(lambda m, c: (lambda: SemirtSimActor(m, c)))
    iso = steady(lambda m, c: (lambda: IsoReuseSimActor(m, c)))
    native = steady(lambda m, c: (lambda: NativeSimActor(m, c)))
    assert sesemi < iso < native


def test_enclave_sizing_with_threads():
    models = models_for("RSNET")
    actor1 = SemirtSimActor(models, CostModel(hardware=None, storage=None), tcs_count=1)  # type: ignore[arg-type]
    actor4 = SemirtSimActor(models, CostModel(hardware=None, storage=None), tcs_count=4)  # type: ignore[arg-type]
    prof = profile("RSNET")
    assert actor1.enclave_total_bytes() == prof.tvm_enclave_bytes
    assert (
        actor4.enclave_total_bytes()
        == prof.tvm_enclave_bytes + 3 * prof.tvm_buffer_bytes
    )


def test_actor_requires_models():
    with pytest.raises(InvocationError):
        SemirtSimActor({}, None)  # type: ignore[arg-type]


def test_unknown_model_request_fails():
    factory = lambda m, c: (lambda: SemirtSimActor(m, c))
    bed, results = run_sequence(
        factory, [Arrival(time=0.0, model_id="ghost", user_id="u")]
    )
    assert results == []  # the serve process died with InvocationError


def test_model_switch_in_pool():
    bed = make_testbed(num_nodes=1)
    models = servable_map(
        [("a", profile("MBNET"), "tvm"), ("b", profile("DSNET"), "tvm")]
    )
    budget = max(action_budget(m) for m in models.values())
    spec = ActionSpec(name="ep", image="t", memory_budget=budget, concurrency=1)
    bed.platform.deploy(spec, lambda: SemirtSimActor(models, bed.cost))
    driver = make_driver(bed)
    driver.submit_arrivals(
        [
            Arrival(time=0.0, model_id="a", user_id="u"),
            Arrival(time=30.0, model_id="b", user_id="u"),
            Arrival(time=60.0, model_id="a", user_id="u"),
        ]
    )
    results = sorted(driver.run(until=2000).results, key=lambda r: r.submitted_at)
    assert [r.kind for r in results] == ["cold", "warm", "warm"]
    assert Stage.MODEL_LOADING.value in results[1].stage_seconds
    assert Stage.MODEL_LOADING.value in results[2].stage_seconds
