"""Extension: hot-path request batching (beyond the paper).

Above the unbatched CPU ceiling, executing same-user hot requests as
batches amortises framework overhead and raises sustainable throughput
-- the BATCH/MArk idea, applied inside SeSeMI's one-user-per-enclave
security rule.
"""

from functools import partial

from repro.core.batching import BatchingSemirtActor, BatchPolicy
from repro.core.simbridge import servable_map
from repro.experiments.common import action_budget, make_driver, make_testbed
from repro.mlrt.zoo import profile
from repro.serverless.action import ActionSpec
from repro.workloads.arrival import Arrival, fixed_rate

CONCURRENCY = 64
OFFERED_RPS = 16.0


def completion_rate(window_s: float) -> float:
    models = servable_map([("m", profile("RSNET"), "tvm")])
    budget = action_budget(models["m"], tcs_count=CONCURRENCY)
    bed = make_testbed(num_nodes=1, node_memory=budget)
    spec = ActionSpec(
        name="ep", image="semirt", memory_budget=budget, concurrency=CONCURRENCY
    )
    bed.platform.deploy(
        spec,
        partial(
            BatchingSemirtActor, models, bed.cost, tcs_count=CONCURRENCY,
            policy=BatchPolicy(batch_window_s=window_s, max_batch=8),
        ),
    )
    driver = make_driver(bed)
    ramp = fixed_rate(2.0, 30.0, "m", "u")
    steady = [
        Arrival(time=a.time + 30.0, model_id="m", user_id="u")
        for a in fixed_rate(OFFERED_RPS, 120.0, "m", "u")
    ]
    driver.submit_arrivals(list(ramp) + steady)
    report = driver.run(until=3000)
    done = [r for r in report.results if 60.0 <= r.finished_at < 150.0]
    return len(done) / 90.0


def test_ext_batching():
    def sweep():
        return {w: completion_rate(w) for w in (0.0, 0.1, 0.25)}

    results = sweep()
    print()
    print(f"Extension -- batching, TVM-RSNET @ {OFFERED_RPS:.0f} rps offered, 12 cores")
    for window, rate in results.items():
        print(f"  batch window {window * 1000:4.0f}ms -> {rate:5.2f} completions/s")
    assert results[0.0] < 13.0           # the unbatched CPU ceiling
    assert results[0.25] > results[0.0] * 1.2
