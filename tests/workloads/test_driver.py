"""Workload drivers: open-loop arrivals and closed-loop sessions."""

import pytest

from repro.routing import AllInOneRouter, FnPool
from repro.experiments.common import make_testbed
from repro.serverless.action import ActionSpec, round_memory_budget
from repro.serverless.container import ActionRuntime
from repro.workloads.arrival import Arrival, Session
from repro.workloads.driver import WorkloadDriver

MB = 1024 * 1024


class InstantRuntime(ActionRuntime):
    def startup(self, ctx):
        yield ctx.sim.timeout(0.1)

    def handle(self, ctx, request):
        yield ctx.sim.timeout(0.2)
        return {"ok": True}, "hot", {}


@pytest.fixture()
def rig():
    bed = make_testbed(num_nodes=1)
    spec = ActionSpec(
        name="pool-all", image="i",
        memory_budget=round_memory_budget(64 * MB), concurrency=4,
    )
    bed.platform.deploy(spec, InstantRuntime)
    pool = FnPool(name="pool", models=("m0", "m1"), memory_budget=0)
    router = AllInOneRouter(pool)
    driver = WorkloadDriver(bed.sim, bed.controller, router)
    return bed, driver


def test_open_loop_fires_at_timestamps(rig):
    bed, driver = rig
    driver.submit_arrivals(
        [Arrival(time=t, model_id="m0", user_id="u") for t in (0.0, 1.0, 2.0)]
    )
    report = driver.run()
    assert len(report.results) == 3
    submits = sorted(r.submitted_at for r in report.results)
    assert submits == pytest.approx([0.0, 1.0, 2.0])


def test_session_queries_are_sequential(rig):
    bed, driver = rig
    driver.submit_session(Session(start_time=1.0, models=("m0", "m1")), index=1)
    report = driver.run()
    first = report.session_results[(1, "m0")]
    second = report.session_results[(1, "m1")]
    assert first.submitted_at == pytest.approx(1.0)
    # The second query waits for the first response.
    assert second.submitted_at >= first.finished_at


def test_mixed_workload_collects_everything(rig):
    bed, driver = rig
    driver.submit_arrivals([Arrival(time=0.5, model_id="m0", user_id="poisson")])
    driver.submit_session(Session(start_time=0.0, models=("m0", "m1")), index=1)
    report = driver.run()
    assert len(report.results) == 3
    assert len(report.session_results) == 2


def test_driver_updates_router_counters(rig):
    bed, driver = rig
    driver.submit_arrivals([Arrival(time=0.0, model_id="m0", user_id="u")])
    driver.run()
    # All dispatches completed: AllInOne router has no state, but the
    # report has every result.
    assert len(driver.report.results) == 1
