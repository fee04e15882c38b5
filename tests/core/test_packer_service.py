"""FnPackerService: deployment, routing, and stats tracking in the sim."""

import pytest

from repro.routing import FnPool
from repro.core.packer_service import FnPackerService, make_router
from repro.core.simbridge import servable_map
from repro.errors import ConfigError, RoutingError
from repro.experiments.common import make_testbed
from repro.mlrt.zoo import profile

MODELS = ("m0", "m1", "m2")


def build_service(strategy="fnpacker", tcs_count=1):
    bed = make_testbed(num_nodes=2)
    pool = FnPool(name="pool", models=MODELS, memory_budget=0)
    models = servable_map([(m, profile("MBNET"), "tvm") for m in MODELS])
    service = FnPackerService(
        bed.sim, bed.controller, pool, models, bed.cost,
        strategy=strategy, tcs_count=tcs_count,
    )
    return bed, service


def run_invocations(bed, service, specs):
    """specs: list of (delay_before, model_id) issued sequentially."""
    results = []

    def driver(sim):
        for delay, model_id in specs:
            if delay:
                yield sim.timeout(delay)
            done = service.invoke(model_id, "user")
            result = yield done
            results.append(result)

    bed.sim.process(driver(bed.sim))
    bed.sim.run(until=10_000)
    return results


def run_burst(bed, service, model_id, count):
    """Issue ``count`` simultaneous requests; await them all."""
    results = []

    def driver(sim):
        pending = [service.invoke(model_id, f"user-{i}") for i in range(count)]
        for event in pending:
            results.append((yield event))

    bed.sim.process(driver(bed.sim))
    bed.sim.run(until=10_000)
    return results


def test_multi_tcs_endpoint_absorbs_burst_in_one_container():
    """tcs_count > 1 => a same-model burst shares one enclave container."""
    bed, service = build_service(tcs_count=4)
    results = run_burst(bed, service, "m0", 4)
    assert len(results) == 4
    assert service.in_flight == 0
    # All four requests fit the container's concurrency (= TCS count):
    # exactly one cold start for the whole burst.
    assert bed.controller.cold_starts == 1


def test_single_tcs_burst_fans_out_containers():
    """tcs_count == 1 serialises per container, so a burst cold-starts more."""
    bed, service = build_service(tcs_count=1)
    results = run_burst(bed, service, "m0", 4)
    assert len(results) == 4
    assert bed.controller.cold_starts > 1


def test_strategy_validation():
    pool = FnPool(name="p", models=MODELS, memory_budget=0)
    with pytest.raises(ConfigError):
        make_router("round-robin", pool)


def test_unknown_pool_model_rejected():
    bed = make_testbed(num_nodes=1)
    pool = FnPool(name="p", models=("ghost",), memory_budget=0)
    with pytest.raises(ConfigError):
        FnPackerService(
            bed.sim, bed.controller, pool,
            servable_map([("m0", profile("MBNET"), "tvm")]), bed.cost,
        )


def test_endpoints_deployed_per_strategy():
    for strategy, expected in (("fnpacker", 3), ("one-to-one", 3), ("all-in-one", 1)):
        bed, service = build_service(strategy)
        assert len(service.router.endpoints()) == expected
        for endpoint, _ in service.router.endpoints():
            assert bed.controller.deployment(endpoint) is not None


def test_invoke_unknown_model_rejected():
    bed, service = build_service()
    with pytest.raises(RoutingError):
        service.invoke("ghost", "user")


def test_requests_complete_and_stats_track():
    bed, service = build_service()
    results = run_invocations(bed, service, [(0, "m0"), (5, "m0"), (5, "m1")])
    assert len(results) == 3
    assert service.stats["m0"].dispatched == 2
    assert service.stats["m0"].completed == 2
    assert service.stats["m1"].completed == 1
    assert service.in_flight == 0
    assert "cold" in service.stats["m0"].last_latency_by_kind


def test_hot_model_becomes_exclusive():
    bed, service = build_service()
    done_events = []

    def driver(sim):
        # Two overlapping requests to m0 pin an endpoint exclusively.
        done_events.append(service.invoke("m0", "user"))
        yield sim.timeout(0.5)
        done_events.append(service.invoke("m0", "user"))
        yield sim.timeout(0.0)

    bed.sim.process(driver(bed.sim))
    bed.sim.run(until=2.0)  # mid-flight
    exclusives = service.exclusive_endpoints()
    assert list(exclusives.values()) == ["m0"]
    bed.sim.run(until=10_000)


def test_sequential_session_reuses_warm_endpoint():
    bed, service = build_service()
    results = run_invocations(
        bed, service, [(0, "m1"), (2, "m2"), (2, "m1"), (2, "m2")]
    )
    # After the initial cold, subsequent alternating requests stay on the
    # endpoints that already hold the models (warm/hot paths).
    kinds = [r.kind for r in results]
    assert kinds[0] == "cold"
    assert kinds[2] in ("warm", "hot")
    assert kinds[3] in ("warm", "hot")


def test_all_in_one_shares_one_endpoint():
    bed, service = build_service("all-in-one")
    results = run_invocations(bed, service, [(0, "m0"), (5, "m1")])
    # Both models served; the second pays a model switch (warm) on the
    # shared endpoint (or a cold if a new container was spawned).
    assert len({r.container_id for r in results}) <= 2
    assert results[1].kind in ("warm", "cold")


def test_memory_budget_includes_thread_buffers():
    _, service1 = build_service(tcs_count=1)
    _, service4 = build_service(tcs_count=4)
    budget1 = service1._budget_for(MODELS)
    budget4 = service4._budget_for(MODELS)
    assert budget4 > budget1
