"""Replay a production-style trace through FnPacker, with telemetry.

Serverless traffic in the wild is heavily skewed: a few hot functions
and a long tail of rarely-invoked ones (the Azure traces the paper cites
for its workload characterisation).  This example synthesises such a
trace over ten DSNET variants, replays it through the FnPackerService
front end, and scrapes the Prometheus-style metrics afterwards --
comparing against the one-endpoint-per-model baseline.

Run with:  python examples/trace_replay.py
"""

from repro.core.packer_service import FnPackerService
from repro.core.costs import CostModel
from repro.core.simbridge import servable_map
from repro.mlrt.zoo import profile
from repro.routing import FnPool
from repro.serverless.controller import PlatformConfig
from repro.serverless.platform import ServerlessPlatform
from repro.serverless.storage import NFS
from repro.serverless.telemetry import MetricsRegistry
from repro.sim.core import Simulation
from repro.sgx.epc import GB
from repro.workloads.metrics import LatencyStats
from repro.workloads.trace import synthesize_skewed_trace

MODEL_IDS = tuple(f"variant-{i}" for i in range(20))
DURATION_S = 900.0
TOTAL_RATE_RPS = 1.5
ZIPF_SKEW = 1.6


def replay(strategy: str):
    sim = Simulation()
    metrics = MetricsRegistry()
    platform = ServerlessPlatform(
        sim, num_nodes=4, node_memory=8 * GB, metrics=metrics,
        config=PlatformConfig(),
    )
    cost = CostModel(hardware=platform.hardware, storage=NFS)
    pool = FnPool(name="zoo", models=MODEL_IDS, memory_budget=0)
    models = servable_map([(m, profile("DSNET"), "tvm") for m in MODEL_IDS])
    service = FnPackerService(
        sim, platform.controller, pool, models, cost, strategy=strategy
    )
    trace = synthesize_skewed_trace(
        MODEL_IDS, duration_s=DURATION_S, total_rate_rps=TOTAL_RATE_RPS,
        skew=ZIPF_SKEW, seed=42,
    )
    results = []

    def driver(sim):
        for arrival in trace:
            delay = arrival.time - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            done = service.invoke(arrival.model_id, arrival.user_id)
            done.callbacks.append(lambda event: results.append(event.value))

    sim.process(driver(sim))
    sim.run(until=DURATION_S + 2000.0)
    return results, metrics, len(trace)


def main() -> None:
    print(f"trace: Zipf-skewed traffic over {len(MODEL_IDS)} DSNET variants\n")
    for strategy in ("fnpacker", "one-to-one"):
        results, metrics, submitted = replay(strategy)
        stats = LatencyStats.of(results)
        snap = metrics.snapshot()
        latency_hist = metrics.histogram("latency.seconds")
        print(f"=== {strategy} ===")
        print(f"  completed          {len(results)}/{submitted}")
        print(f"  mean latency       {stats.mean:.2f}s   p95 {stats.p95:.2f}s")
        print(f"  cold starts        {int(snap['containers.cold_starts'])}")
        print(f"  p90 (histogram)    <= {latency_hist.quantile(0.9):.2f}s")
        print(f"  peak containers    {metrics.time_series('containers.active').peak:.0f}")
        gb_s = metrics.time_series("memory.reserved.bytes").integral(DURATION_S) / GB
        print(f"  memory cost        {gb_s:.0f} GB-s\n")
    print(
        "takeaway: on long-tail traffic FnPacker needs far fewer cold"
        "\nstarts and containers -- the tail shares warm endpoints -- which"
        "\nis exactly the cost argument of the paper's Section IV-C."
    )


if __name__ == "__main__":
    main()
