"""Ablation: storage tier (cluster NFS vs Azure Blob) on the warm path.

Section VI-A argues hot invocations matter *more* with real cloud
storage: a warm invocation re-downloads the model, which costs ~180ms
(MBNET) to ~2.1s (RSNET) on in-region Azure Blob.  This ablation runs
warm and hot invocations against both storage profiles.
"""

from repro.experiments.common import make_testbed
from repro.serverless.storage import AZURE_BLOB, NFS


def _paths(model, storage):
    from repro.core.simbridge import servable_map
    from repro.experiments.common import action_budget, make_driver, system_factory
    from repro.mlrt.zoo import profile
    from repro.serverless.action import ActionSpec
    from repro.workloads.arrival import Arrival

    bed = make_testbed(num_nodes=1, storage=storage)
    models = servable_map(
        [("m", profile(model), "tvm"), ("decoy", profile("MBNET"), "tvm")]
    )
    budget = max(action_budget(m) for m in models.values())
    spec = ActionSpec(name="ep", image="semirt", memory_budget=budget, concurrency=1)
    bed.platform.deploy(spec, system_factory("SeSeMI", models, bed.cost))
    driver = make_driver(bed)
    driver.submit_arrivals(
        [
            Arrival(time=0.0, model_id="m", user_id="u"),
            Arrival(time=100.0, model_id="decoy", user_id="u"),
            Arrival(time=120.0, model_id="m", user_id="u"),   # warm
            Arrival(time=140.0, model_id="m", user_id="u"),   # hot
        ]
    )
    by_time = sorted(driver.run(until=600).results, key=lambda r: r.submitted_at)
    managed = lambda r: sum(v for k, v in r.stage_seconds.items() if k != "sandbox_init")
    return managed(by_time[2]), managed(by_time[3])


def test_ablation_storage_tier():
    def sweep():
        out = {}
        for model in ("MBNET", "RSNET"):
            for name, storage in (("nfs", NFS), ("azure", AZURE_BLOB)):
                out[(model, name)] = _paths(model, storage)
        return out

    results = sweep()
    print()
    print("Ablation -- storage tier effect on warm vs hot invocations (TVM)")
    print(f"{'config':>14s} {'warm (s)':>9s} {'hot (s)':>8s} {'warm/hot':>9s}")
    for (model, tier), (warm, hot) in results.items():
        print(f"{model + '/' + tier:>14s} {warm:9.3f} {hot:8.3f} {warm / hot:9.1f}")
    # Azure makes the warm path dramatically worse; the hot path is immune.
    for model in ("MBNET", "RSNET"):
        warm_nfs, hot_nfs = results[(model, "nfs")]
        warm_azure, hot_azure = results[(model, "azure")]
        assert warm_azure > warm_nfs * 1.5
        assert abs(hot_azure - hot_nfs) / hot_nfs < 0.05
