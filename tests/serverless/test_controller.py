"""Controller scheduling: warm reuse, cold starts, queueing, keep-alive."""

import pytest

from repro.errors import PlatformError
from repro.serverless.action import ActionSpec, Request, round_memory_budget
from repro.serverless.container import ActionRuntime
from repro.serverless.controller import PlatformConfig
from repro.serverless.platform import ServerlessPlatform
from repro.sim.core import Simulation
from repro.warmpool.manager import WarmPoolConfig

MB = 1024 * 1024
BUDGET = round_memory_budget(100 * MB)


class EchoRuntime(ActionRuntime):
    """Serves requests after a fixed service time."""

    def __init__(self, startup_s=0.5, service_s=0.1):
        self.startup_s = startup_s
        self.service_s = service_s
        self.served = 0

    def startup(self, ctx):
        yield ctx.sim.timeout(self.startup_s)

    def handle(self, ctx, request):
        yield ctx.sim.timeout(self.service_s)
        self.served += 1
        return {"echo": request.model_id}, "hot", {"exec": self.service_s}


def build(num_nodes=1, node_memory=4 * 1024 * MB, config=None, concurrency=1,
          runtime_factory=None):
    sim = Simulation()
    platform = ServerlessPlatform(
        sim, num_nodes=num_nodes, node_memory=node_memory,
        config=config or PlatformConfig(),
    )
    spec = ActionSpec(name="f", image="img", memory_budget=BUDGET,
                      concurrency=concurrency)
    platform.deploy(spec, runtime_factory or EchoRuntime)
    return sim, platform


def openwhisk_keep_alive(seconds):
    """OpenWhisk's warm pool with a shorter keep-alive."""
    return WarmPoolConfig(strategy="mru", keep_alive_s=seconds, min_warm=0)


def invoke_n(sim, platform, count, gap=0.0):
    events = []

    def driver(sim):
        for _ in range(count):
            events.append(platform.invoke("f", Request(model_id="m", user_id="u")))
            if gap:
                yield sim.timeout(gap)
        if not gap:
            yield sim.timeout(0)

    sim.process(driver(sim))
    sim.run()
    return [e.value for e in events]


def test_deploy_twice_rejected():
    sim, platform = build()
    spec = ActionSpec(name="f", image="img", memory_budget=BUDGET)
    with pytest.raises(PlatformError):
        platform.deploy(spec, EchoRuntime)


def test_invoke_unknown_action_rejected():
    sim, platform = build()
    with pytest.raises(PlatformError):
        platform.invoke("ghost", Request(model_id="m", user_id="u"))


def test_first_request_is_cold():
    sim, platform = build()
    (result,) = invoke_n(sim, platform, 1)
    assert result.kind == "cold"
    assert "sandbox_init" in result.stage_seconds
    assert result.latency > 2.0  # sandbox init dominates


def test_warm_reuse_on_sequential_requests():
    sim, platform = build()
    results = invoke_n(sim, platform, 3, gap=5.0)
    assert [r.kind for r in results] == ["cold", "hot", "hot"]
    assert results[1].latency < results[0].latency
    assert platform.controller.cold_starts == 1


def test_burst_spawns_multiple_containers():
    sim, platform = build()
    results = invoke_n(sim, platform, 4)
    assert platform.controller.cold_starts == 4
    assert {r.kind for r in results} == {"cold"}


def test_container_concurrency_shares_instance():
    sim, platform = build(concurrency=4)
    results = invoke_n(sim, platform, 4)
    assert platform.controller.cold_starts == 1
    assert len({r.container_id for r in results}) == 1


def test_memory_exhaustion_queues_requests():
    # Node fits exactly one container; the second request must wait for it.
    sim, platform = build(node_memory=BUDGET)
    results = invoke_n(sim, platform, 3)
    assert platform.controller.cold_starts == 1
    assert len({r.container_id for r in results}) == 1
    assert sorted(r.finished_at for r in results)[2] > results[0].finished_at


def test_spillover_to_second_node():
    sim, platform = build(num_nodes=2, node_memory=BUDGET)
    results = invoke_n(sim, platform, 2)
    assert len({r.node_id for r in results}) == 2


def test_keepalive_reaps_idle_containers():
    config = PlatformConfig(warm_pool=openwhisk_keep_alive(10.0))
    sim, platform = build(config=config)
    invoke_n(sim, platform, 1)
    sim.run(until=sim.now + 100.0)
    assert platform.controller.warm_containers("f") == 0
    reserved = sum(node.memory_used for node in platform.nodes)
    assert reserved == 0


def test_keepalive_not_reaped_while_active():
    config = PlatformConfig(warm_pool=openwhisk_keep_alive(10.0))
    sim, platform = build(config=config)
    results = invoke_n(sim, platform, 10, gap=5.0)  # steady traffic
    assert platform.controller.cold_starts == 1
    assert [r.kind for r in results].count("cold") == 1


def test_memory_timeline_records_reservations():
    sim, platform = build()
    invoke_n(sim, platform, 1)
    timeline = platform.controller.memory_timeline
    assert timeline[0] == (0.0, 0)
    assert max(level for _, level in timeline) == BUDGET


def test_controller_overhead_serialises_admission():
    config = PlatformConfig(controller_overhead_s=1.0, sandbox_init_s=0.0)
    sim, platform = build(
        config=config, concurrency=8,
        runtime_factory=lambda: EchoRuntime(startup_s=0.0),
    )
    results = invoke_n(sim, platform, 3)
    # Admissions pass through a serial 1s stage: completions are spaced.
    finishes = sorted(r.finished_at for r in results)
    assert finishes[1] - finishes[0] >= 0.99
    assert finishes[2] - finishes[1] >= 0.99


def test_mru_container_preferred():
    sim, platform = build()
    events = []

    def driver(sim):
        events.append(platform.invoke("f", Request(model_id="m", user_id="u")))
        yield sim.timeout(1.0)
        events.append(platform.invoke("f", Request(model_id="m", user_id="u")))
        yield sim.timeout(9.0)  # both containers warm and idle by now
        events.append(platform.invoke("f", Request(model_id="m", user_id="u")))

    sim.process(driver(sim))
    sim.run()
    first, second, late = (e.value for e in events)
    assert {first.kind, second.kind} == {"cold"}
    # The most recently used container serves the follow-up request.
    most_recent = max((first, second), key=lambda r: r.finished_at)
    assert late.kind == "hot"
    assert late.container_id == most_recent.container_id


# -- OpenWhisk's keep-alive rules, kept by the deployment's warm pool ---------


class PayloadRuntime(ActionRuntime):
    """Serves each request for ``request.payload`` seconds."""

    def startup(self, ctx):
        yield ctx.sim.timeout(0.5)

    def handle(self, ctx, request):
        yield ctx.sim.timeout(request.payload)
        return None, "hot", {}


def exact_platform(keep_alive_s=180.0, concurrency=1):
    """No sandbox init, no admission overhead: times are the runtime's."""
    config = PlatformConfig(
        sandbox_init_s=0.0,
        controller_overhead_s=0.0,
        warm_pool=openwhisk_keep_alive(keep_alive_s),
    )
    return build(config=config, concurrency=concurrency, runtime_factory=PayloadRuntime)


def submit_at(sim, platform, schedule):
    """Invoke ``f`` at each ``(time, service_s)``; returns the done events."""
    events = []

    def driver(sim):
        for at, service_s in schedule:
            if at > sim.now:
                yield sim.timeout(at - sim.now)
            events.append(platform.invoke(
                "f", Request(model_id="m", user_id="u", payload=service_s)
            ))
        yield sim.timeout(0)

    sim.process(driver(sim))
    return events


#: a completion instant where ``(c + 180) - c < 180`` in floating point:
#: a keep-alive that compares elapsed idle time misses this expiry
AWKWARD_START = 90.20363152374062


def test_idle_exactly_keep_alive_is_destroyed_at_that_instant():
    sim, platform = exact_platform(keep_alive_s=180.0)
    events = submit_at(sim, platform, [(AWKWARD_START, 0.1)])
    sim.run(until=AWKWARD_START + 1.0)
    idle_since = events[0].value.finished_at
    expiry = idle_since + 180.0
    assert expiry - idle_since < 180.0  # the rounding case
    sim.run(until=expiry - 1e-9)
    assert platform.controller.warm_containers("f") == 1
    sim.run(until=expiry)
    assert platform.controller.warm_containers("f") == 0
    assert sum(node.memory_used for node in platform.nodes) == 0
    assert platform.controller.memory_timeline[-1] == (expiry, 0)


def test_idle_just_under_keep_alive_is_reused_warm():
    sim, platform = exact_platform(keep_alive_s=10.0)
    # the first request completes at 0.5 + 0.1; the keep-alive runs from
    # that completion, not from its dispatch at 0.0
    events = submit_at(sim, platform, [(0.0, 0.1), (0.6 + 10.0 - 1e-6, 0.1)])
    sim.run()
    first, second = events
    assert first.value.finished_at == 0.6
    assert second.value.kind == "hot"
    assert second.value.container_id == first.value.container_id
    assert platform.controller.cold_starts == 1


def test_a_busy_container_with_a_free_slot_beats_an_older_idle_one():
    sim, platform = exact_platform(concurrency=4)
    # four quick requests fill container A; two more open container B,
    # whose 2 s request completes at 2.5 while its 20 s one runs on
    events = submit_at(sim, platform, [(0.0, 0.1)] * 4 + [(0.0, 20.0), (0.0, 2.0)])
    late = submit_at(sim, platform, [(3.0, 0.1)])
    sim.run()
    a, b = events[0].value.container_id, events[4].value.container_id
    assert a != b and events[5].value.container_id == b
    # A idle since 0.6, B last used at 2.5 with 3 of 4 slots free: B
    assert late[0].value.container_id == b
    assert late[0].value.started_at == 3.0


def test_a_last_use_tie_goes_to_the_container_launched_first():
    sim, platform = exact_platform()
    # ten cold starts at t=0; container-2 and container-10 both finish
    # last, at the same instant ("container-10" sorts before "container-9")
    services = [0.1] * 10
    services[1] = services[9] = 5.0
    events = submit_at(sim, platform, [(0.0, s) for s in services])
    late = submit_at(sim, platform, [(6.0, 0.1)])
    sim.run()
    tied = [events[1].value, events[9].value]
    assert tied[0].finished_at == tied[1].finished_at
    assert [r.container_id for r in tied] == ["container-2", "container-10"]
    assert late[0].value.container_id == "container-2"


def test_the_warm_pool_learns_each_container_startup_once_it_is_ready():
    sim, platform = exact_platform()
    events = submit_at(sim, platform, [(0.0, 0.1)])
    sim.run(until=0.25)
    pool = platform.controller.deployment("f").warm_pool
    assert pool.stats(sim.now)["endpoints"]["container-1"]["cold_start_s"] == 0.0
    sim.run(until=1.0)
    assert events[0].value.kind == "cold"
    assert pool.stats(sim.now)["endpoints"]["container-1"]["cold_start_s"] == 0.5
    assert pool.decision_log()[:2] == [
        "launch ep=container-1 t=0.000000 cold_start_s=pending kind=demand",
        "dispatch ep=container-1 model=m t=0.000000 temp=cold",
    ]
    assert "ready ep=container-1 t=0.500000 cold_start_s=0.500000" in pool.decision_log()


def _pool_matches_fleet(controller, name="f"):
    return controller.deployment(name).warm_pool.fleet_size == (
        controller.warm_containers(name)
    )


def test_no_warm_pool_record_outlives_its_container_on_a_fig13_run():
    from repro.experiments.common import deploy_single_model, make_driver, make_testbed
    from repro.experiments.fig13 import NUM_NODES, mmpp_trace

    bed = make_testbed(num_nodes=NUM_NODES, node_memory=12 * 384 * MB)
    deploy_single_model(bed, "SeSeMI", "DSNET", "tvm")
    driver = make_driver(bed)
    driver.submit_arrivals(mmpp_trace(240.0))
    for until in (100.0, 200.0, 300.0, 3600.0):
        driver.run(until=until)
        assert _pool_matches_fleet(bed.controller, "ep")
    assert bed.controller.warm_containers("ep") == 0  # all expired by now
