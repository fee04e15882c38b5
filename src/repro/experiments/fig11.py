"""Figure 11: latency versus the number of concurrent executions.

(a) **CPU bound** (SGX2, 64 GB EPC): one SeMIRT enclave with enough TCSs
    serves N simultaneous hot requests; latency is flat until N exceeds
    the node's 12 physical cores, then climbs as requests queue on cores.

(b) **EPC bound** (SGX1, 128 MB EPC): N concurrent requests served either
    by N single-thread enclaves (``*-1``) or by four-thread enclaves
    (``*-4``).  Committed enclave pages scale with the number of enclaves
    and their buffer sizes, so TVM (big buffers with weight copies) hits
    the paging knee before TFLM, and ``-4`` variants grow slower than
    ``-1`` -- the paper's Figure 11b ordering.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List

from repro.core.simbridge import SemirtSimActor, servable_map
from repro.experiments.common import (
    Anchor,
    action_budget,
    format_table,
    make_driver,
    make_testbed,
    sgx1_testbed,
)
from repro.mlrt.zoo import profile
from repro.serverless.action import ActionSpec
from repro.workloads.arrival import Arrival


def _burst_latency(bed, endpoint: str, n: int, warmup_gap: float = 120.0) -> float:
    """Mean latency of N simultaneous requests against warm capacity.

    The warm-up burst provisions the containers; the measured burst fires
    well inside the 3-minute keep-alive so every request takes the hot path.
    """
    driver = make_driver(bed, endpoint=endpoint)
    warmup = [Arrival(time=0.0, model_id="m", user_id="u") for _ in range(n)]
    burst = [Arrival(time=warmup_gap, model_id="m", user_id="u") for _ in range(n)]
    driver.submit_arrivals(warmup + burst)
    report = driver.run(until=warmup_gap + 2000.0)
    measured = [r for r in report.results if r.submitted_at >= warmup_gap]
    if len(measured) != n:
        raise RuntimeError(f"expected {n} measured results, got {len(measured)}")
    return sum(r.latency for r in measured) / n


def run_cpu_bound(
    model_name: str = "RSNET",
    framework: str = "tvm",
    concurrency_levels=(1, 2, 4, 8, 12, 16),
) -> List[tuple]:
    """Figure 11a: single enclave, N threads, SGX2."""
    rows = []
    for n in concurrency_levels:
        bed = make_testbed(num_nodes=1)
        models = servable_map([("m", profile(model_name), framework)])
        spec = ActionSpec(
            name="ep",
            image="semirt",
            memory_budget=action_budget(models["m"], tcs_count=16),
            concurrency=n,
        )
        bed.platform.deploy(
            spec, partial(SemirtSimActor, models, bed.cost, tcs_count=n)
        )
        rows.append((n, _burst_latency(bed, "ep", n)))
    return rows


def run_epc_bound(
    model_name: str = "MBNET",
    concurrency_levels=(1, 2, 4, 8, 12),
) -> Dict[str, List[tuple]]:
    """Figure 11b: SGX1 (128 MB EPC), 1- vs 4-thread enclaves, TVM vs TFLM."""
    series: Dict[str, List[tuple]] = {}
    for framework in ("tvm", "tflm"):
        for threads in (1, 4):
            label = f"{framework.upper()}-{threads}"
            rows = []
            for n in concurrency_levels:
                bed = sgx1_testbed(num_nodes=1)
                models = servable_map([("m", profile(model_name), framework)])
                spec = ActionSpec(
                    name="ep",
                    image="semirt",
                    memory_budget=action_budget(models["m"], tcs_count=threads),
                    concurrency=threads,
                )
                bed.platform.deploy(
                    spec, partial(SemirtSimActor, models, bed.cost, tcs_count=threads)
                )
                rows.append((n, _burst_latency(bed, "ep", n)))
            series[label] = rows
    return series


def run() -> dict:
    """Run both sub-experiments (CPU-bound and EPC-bound)."""
    return {"cpu_bound": run_cpu_bound(), "epc_bound": run_epc_bound()}


def _slower(low: str, high: str) -> Anchor:
    """Figure 11b: at the top concurrency ``low`` is faster than ``high``."""
    return Anchor(f"11b: {low} grows slower than {high}", f"{low} below {high}", lambda r: (
        r["epc_bound"][low][-1][1], r["epc_bound"][high][-1][1]), "order", unit="s")


ANCHORS = (
    Anchor("11a: knee past the 12 physical cores", "queues past 12", lambda r: (
        dict(r["cpu_bound"])[12], dict(r["cpu_bound"])[16]), "order", unit="s"),
    _slower("TVM-4", "TVM-1"),
    _slower("TFLM-4", "TFLM-1"),
    _slower("TFLM-4", "TVM-4"),
)


def format_report(result: dict) -> str:
    """Render the experiment result as a paper-style text table."""
    lines = [
        "Figure 11a -- latency vs concurrent executions (TVM-RSNET, SGX2;",
        "knee expected past 12 physical cores):",
        "",
        format_table(["concurrency", "mean latency (s)"], result["cpu_bound"]),
        "",
        "Figure 11b -- latency under EPC pressure (MBNET, SGX1 128MB EPC).",
        "",
    ]
    for label, rows in result["epc_bound"].items():
        lines.append(
            format_table([f"{label} concurrency", "mean latency (s)"], rows)
        )
        lines.append("")
    return "\n".join(lines)
