"""Whole-platform invariants under randomised workloads (fuzzing).

Hypothesis drives random workload shapes through the controller and the
SeSeMI actors; after the run the conservation laws must hold regardless
of the schedule taken:

- every submitted request completes exactly once;
- node memory accounting returns to zero once keep-alives expire;
- the EPC holds no pages once every container is reclaimed;
- the memory timeline is a well-formed non-negative step function.
"""

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simbridge import SemirtSimActor, servable_map
from repro.experiments.common import action_budget, make_driver, make_testbed
from repro.mlrt.zoo import profile
from repro.serverless.action import ActionSpec
from repro.workloads.arrival import Arrival


@settings(max_examples=15, deadline=None)
@given(
    offsets=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=25),
    model_picks=st.lists(st.integers(0, 1), min_size=1, max_size=25),
    concurrency=st.integers(1, 4),
    num_nodes=st.integers(1, 3),
)
def test_conservation_under_random_workloads(
    offsets, model_picks, concurrency, num_nodes
):
    bed = make_testbed(num_nodes=num_nodes)
    models = servable_map(
        [("a", profile("MBNET"), "tvm"), ("b", profile("DSNET"), "tflm")]
    )
    budget = max(action_budget(m, concurrency) for m in models.values())
    spec = ActionSpec(
        name="ep", image="semirt", memory_budget=budget, concurrency=concurrency
    )
    bed.platform.deploy(
        spec, partial(SemirtSimActor, models, bed.cost, tcs_count=concurrency)
    )
    driver = make_driver(bed)
    names = ["a", "b"]
    arrivals = [
        Arrival(
            time=offset,
            model_id=names[model_picks[i % len(model_picks)]],
            user_id=f"user-{i % 3}",
        )
        for i, offset in enumerate(offsets)
    ]
    driver.submit_arrivals(arrivals)
    report = driver.run()  # run to quiescence (keep-alives included)

    # 1. every request completed exactly once
    assert len(report.results) == len(arrivals)
    ids = [r.request.request_id for r in report.results]
    assert len(set(ids)) == len(ids)
    # 2. all memory returned
    for node in bed.platform.nodes:
        assert node.memory_used == 0
        # 3. no enclave pages left committed
        assert node.sgx.epc.committed_bytes == 0
        # no core or quoting-slot leaks either
        assert node.cores.in_use == 0
        assert node.quoting.in_use == 0
    # 4. well-formed memory timeline
    timeline = bed.controller.memory_timeline
    assert timeline[0] == (0.0, 0)
    assert timeline[-1][1] == 0
    times = [t for t, _ in timeline]
    assert times == sorted(times)
    assert all(level >= 0 for _, level in timeline)
    # latencies are physical
    assert all(r.latency > 0 for r in report.results)
