"""Ablation: EPC size sweep -- where the bottleneck moves (SGX1 -> SGX2).

Section VII: "for SGX2 the performance bottleneck has shifted from
memory to CPU."  Sweeping the configured EPC between the two hardware
generations makes the crossover visible: below a few hundred MB, TFLM's
small buffers win; above, TVM's faster kernels win.
"""

from repro.core.simbridge import semirt_factory, servable_map
from repro.experiments.common import action_budget, make_driver, make_testbed
from repro.mlrt.zoo import profile
from repro.serverless.action import ActionSpec
from repro.sgx.epc import GB, MB
from repro.sgx.platform import SGX2, profile_with_epc
from repro.workloads.arrival import fixed_rate
from repro.workloads.metrics import LatencyStats

EPC_SIZES = (128 * MB, 512 * MB, 64 * GB)
RATE_RPS = 10.0


def run_point(epc_bytes: int, framework: str) -> float:
    hardware = profile_with_epc(SGX2, epc_bytes)
    bed = make_testbed(num_nodes=1, hardware=hardware)
    models = servable_map([("m", profile("MBNET"), framework)])
    spec = ActionSpec(
        name="ep", image="semirt",
        memory_budget=action_budget(models["m"], tcs_count=4), concurrency=4,
    )
    bed.platform.deploy(spec, semirt_factory(models, bed.cost, tcs_count=4))
    driver = make_driver(bed)
    ramp = fixed_rate(2.0, 40.0, "m", "u")
    steady = [
        type(a)(time=a.time + 40.0, model_id="m", user_id="u")
        for a in fixed_rate(RATE_RPS, 120.0, "m", "u")
    ]
    driver.submit_arrivals(ramp + steady)
    report = driver.run(until=1200.0)
    measured = [r for r in report.results if r.submitted_at >= 100.0]
    return LatencyStats.of(measured).mean


def test_ablation_epc_sweep():
    def sweep():
        return {
            (epc, fw): run_point(epc, fw)
            for epc in EPC_SIZES
            for fw in ("tvm", "tflm")
        }

    results = sweep()
    print()
    print(f"Ablation -- EPC sweep, MBNET @ {RATE_RPS:.0f} rps, 4 threads")
    for epc in EPC_SIZES:
        label = f"{epc // MB}MB" if epc < GB else f"{epc // GB}GB"
        print(
            f"  EPC {label:>6s}: TVM {results[(epc, 'tvm')]:7.3f}s   "
            f"TFLM {results[(epc, 'tflm')]:7.3f}s"
        )
    # Memory-bound regime: TFLM wins under the SGX1-sized EPC.
    assert results[(128 * MB, "tflm")] < results[(128 * MB, "tvm")]
    # CPU-bound regime: TVM wins once the EPC stops mattering.
    assert results[(64 * GB, "tvm")] < results[(64 * GB, "tflm")]
    # The large-EPC latency equals the unpressured hot path.
    assert results[(64 * GB, "tvm")] < 0.15
