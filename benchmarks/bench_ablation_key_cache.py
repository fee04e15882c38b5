"""Ablation: decompose the Table II isolation overhead into its parts.

The strong-isolation build flips two switches at once: the key cache
and runtime reuse.  This ablation measures them separately, showing how
much of the overhead is the per-request key re-fetch vs. the runtime
re-initialisation -- a decomposition the paper does not report.
"""

from functools import partial

from repro.core.simbridge import SemirtSimActor, servable_map
from repro.experiments.common import action_budget, make_driver, make_testbed
from repro.mlrt.zoo import profile
from repro.serverless.action import ActionSpec
from repro.workloads.arrival import Arrival

CONFIGS = {
    "baseline": dict(key_cache=True, reuse_runtime=True),
    "no-key-cache": dict(key_cache=False, reuse_runtime=True),
    "no-runtime-reuse": dict(key_cache=True, reuse_runtime=False),
    "strong-isolation": dict(key_cache=False, reuse_runtime=False),
}


def steady_seconds(model_name: str, **flags) -> float:
    bed = make_testbed(num_nodes=1)
    models = servable_map([("m", profile(model_name), "tvm")])
    spec = ActionSpec(
        name="ep", image="semirt",
        memory_budget=action_budget(models["m"]), concurrency=1,
    )
    bed.platform.deploy(spec, partial(SemirtSimActor, models, bed.cost, **flags))
    driver = make_driver(bed)
    driver.submit_arrivals(
        [Arrival(time=20.0 * i, model_id="m", user_id="u") for i in range(4)]
    )
    report = driver.run(until=600)
    last = max(report.results, key=lambda r: r.submitted_at)
    return sum(v for k, v in last.stage_seconds.items() if k != "sandbox_init")


def test_ablation_key_cache():
    def sweep():
        return {
            name: steady_seconds("RSNET", **flags)
            for name, flags in CONFIGS.items()
        }

    results = sweep()
    print()
    print("Ablation -- isolation knobs, steady-state TVM-RSNET request (ms)")
    for name, seconds in results.items():
        print(f"  {name:18s} {seconds * 1000:9.2f}")
    base = results["baseline"]
    key_only = results["no-key-cache"] - base
    runtime_only = results["no-runtime-reuse"] - base
    both = results["strong-isolation"] - base
    print(
        f"  decomposition: key re-fetch +{key_only * 1000:.0f}ms, "
        f"runtime re-init +{runtime_only * 1000:.0f}ms, "
        f"combined +{both * 1000:.0f}ms"
    )
    assert key_only > 0 and runtime_only > 0
    # The two costs are roughly additive.
    assert abs(both - (key_only + runtime_only)) < 0.2 * both
