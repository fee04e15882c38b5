"""Hot-path request batching (extension)."""

import pytest

from repro.core.batching import BatchPolicy, BatchingSemirtActor, batching_semirt_factory
from repro.core.simbridge import servable_map
from repro.errors import ConfigError
from repro.experiments.common import action_budget, make_driver, make_testbed
from repro.mlrt.zoo import profile
from repro.serverless.action import ActionSpec
from repro.workloads.arrival import Arrival


def deploy(batch_window_s=0.05, max_batch=8, concurrency=8, single_container=False):
    models = servable_map([("m", profile("RSNET"), "tvm")])
    budget = action_budget(models["m"], tcs_count=concurrency)
    # Optionally size the node so exactly one container fits: all
    # requests then funnel into one enclave, where batching happens.
    bed = make_testbed(
        num_nodes=1, node_memory=budget if single_container else 64 * 1024 ** 3
    )
    spec = ActionSpec(
        name="ep", image="semirt", memory_budget=budget, concurrency=concurrency,
    )
    factory = batching_semirt_factory(
        models, bed.cost, tcs_count=concurrency,
        policy=BatchPolicy(batch_window_s=batch_window_s, max_batch=max_batch),
    )
    actor_holder = []

    def wrapped():
        actor = factory()
        actor_holder.append(actor)
        return actor

    bed.platform.deploy(spec, wrapped)
    return bed, actor_holder


def run_burst(bed, count, at=120.0, warmup=1):
    driver = make_driver(bed)
    arrivals = [Arrival(time=10.0 * i, model_id="m", user_id="u") for i in range(warmup)]
    arrivals += [Arrival(time=at, model_id="m", user_id="u") for _ in range(count)]
    driver.submit_arrivals(arrivals)
    report = driver.run(until=3000)
    return [r for r in report.results if r.submitted_at >= at]


def test_parameter_validation():
    with pytest.raises(ConfigError):
        BatchPolicy(batch_window_s=-1)
    with pytest.raises(ConfigError, match=r"^alpha must be in \(0, 1\]$"):
        BatchPolicy(alpha=0.0)
    with pytest.raises(ConfigError):
        BatchPolicy(max_batch=0)
    with pytest.raises(ConfigError):
        BatchPolicy().clamped(0)


def test_policy_clamped_to_tcs_count():
    models = servable_map([("m", profile("MBNET"), "tvm")])
    bed = make_testbed(num_nodes=1)
    # every batched request occupies one TCS slot: the actor's policy is
    # the explicit clamp, not a silently shrunk constructor value
    actor = BatchingSemirtActor(
        models, bed.cost, tcs_count=4, policy=BatchPolicy(max_batch=16)
    )
    assert actor.policy.max_batch == 4
    assert actor.max_batch == 4
    assert BatchPolicy(max_batch=3).clamped(8) == BatchPolicy(max_batch=3)


def test_loose_kwargs_path_removed():
    """The pre-policy loose kwargs were dropped after their one-release
    window: the policy object is the only way to configure batching."""
    models = servable_map([("m", profile("MBNET"), "tvm")])
    bed = make_testbed(num_nodes=1)
    with pytest.raises(TypeError):
        BatchingSemirtActor(models, bed.cost, batch_window_s=0.1, max_batch=2)
    actor = BatchingSemirtActor(
        models, bed.cost, policy=BatchPolicy(batch_window_s=0.1, max_batch=2)
    )
    assert actor.policy == BatchPolicy(batch_window_s=0.1, max_batch=2)


def test_feed_window_derived_from_policy():
    # two full (clamped) batches, floored at one request per TCS slot
    assert BatchPolicy(max_batch=8).feed_window(4) == 8      # clamp to 4, x2
    assert BatchPolicy(max_batch=3).feed_window(8) == 8      # floor: tcs_count
    assert BatchPolicy(max_batch=6).feed_window(8) == 12
    assert BatchPolicy(max_batch=1).feed_window(2) == 2


def test_batched_exec_sublinear():
    bed = make_testbed(num_nodes=1)
    models = servable_map([("m", profile("RSNET"), "tvm")])
    actor = BatchingSemirtActor(models, bed.cost, policy=BatchPolicy(alpha=0.6))
    single = actor.batched_exec_s(models["m"], 1)
    quad = actor.batched_exec_s(models["m"], 4)
    assert single == pytest.approx(profile("RSNET").tvm_exec_s)
    assert quad < 4 * single
    assert quad > single


def test_simultaneous_hot_requests_share_a_batch():
    bed, actors = deploy()
    results = run_burst(bed, count=4)
    assert len(results) == 4
    actor = actors[0]
    assert actor.batches_executed >= 1
    assert actor.batched_requests == 4
    # One batch of 4: everyone finishes together, faster than 4 serials.
    finishes = {round(r.finished_at, 6) for r in results}
    if actor.batches_executed == 1:
        assert len(finishes) == 1


def test_batch_bounded_by_max_batch():
    bed, actors = deploy(max_batch=2)
    results = run_burst(bed, count=4)
    assert len(results) == 4
    assert actors[0].batches_executed >= 2


def test_cold_requests_not_batched():
    bed, actors = deploy()
    driver = make_driver(bed)
    driver.submit_arrivals([Arrival(time=0.0, model_id="m", user_id="u")])
    report = driver.run(until=2000)
    (result,) = report.results
    assert result.kind == "cold"
    assert actors[0].batches_executed == 0


def test_batching_raises_saturation_throughput():
    """Batching amortises compute: above the unbatched CPU ceiling
    (12 cores / 0.983s ~ 12.2 rps for TVM-RSNET) the batching build keeps
    up with 16 rps of offered load while the unbatched build saturates.

    Batching needs enough TCS slots to hold waiting batch members
    (requests occupy their slot while riding a batch), hence the large
    concurrency setting.
    """
    from repro.workloads.arrival import fixed_rate

    def completion_rate(window):
        bed, _ = deploy(
            batch_window_s=window, max_batch=8, concurrency=64,
            single_container=True,
        )
        driver = make_driver(bed)
        ramp = fixed_rate(2.0, 30.0, "m", "u")
        steady = [
            Arrival(time=a.time + 30.0, model_id="m", user_id="u")
            for a in fixed_rate(16.0, 120.0, "m", "u")
        ]
        driver.submit_arrivals(list(ramp) + steady)
        report = driver.run(until=3000)
        done = [r for r in report.results if 60.0 <= r.finished_at < 150.0]
        return len(done) / 90.0

    unbatched = completion_rate(0.0)
    batched = completion_rate(0.25)
    assert unbatched < 13.0          # CPU-bound without batching
    assert batched > 15.0            # keeps up with offered load
    assert batched > unbatched * 1.2


def test_user_switch_breaks_batches():
    bed, actors = deploy()
    driver = make_driver(bed)
    arrivals = [Arrival(time=0.0, model_id="m", user_id="alice")]
    arrivals += [
        Arrival(time=120.0, model_id="m", user_id="alice"),
        Arrival(time=120.0, model_id="m", user_id="bob"),
    ]
    driver.submit_arrivals(arrivals)
    report = driver.run(until=3000)
    late = [r for r in report.results if r.submitted_at >= 120.0]
    assert len(late) == 2
    # bob's request was not hot (key cache held alice): it cannot have
    # joined alice's batch.
    kinds = {r.request.user_id: r.kind for r in late}
    assert kinds["bob"] == "warm"
