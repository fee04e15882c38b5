"""Figures 13 & 14: multi-node MMPP serving -- latency and memory cost.

The cluster runs 8 invoker nodes; the workload is a Markov-modulated
Poisson process alternating between 20 and 40 rps (Section VI-C), with a
20 rps warm-up phase before measurement.

Figure 13 compares Native / Iso-reuse / SeSeMI on TVM-DSNET and
TVM-RSNET (paper: DSNET Iso-reuse 3.35 s vs SeSeMI 0.64 s -- an 81%
improvement; RSNET 12.54 s vs 8.28 s under heavy contention; Native is
off the chart).

Figure 14 runs the same workload on SeSeMI with 1- vs 4-thread enclaves
and integrates reserved container memory over time into GB-seconds
(paper: DSNET 3543 -> 1459 GB-s, a 59 % cost cut; RSNET 2273 -> 1179,
48 %).  Memory budgets follow the paper: 256/384 MB for DSNET-1/-4 and
768/1536 MB for RSNET-1/-4.
"""

from __future__ import annotations

from typing import Dict

from repro.core.simbridge import servable_map, semirt_factory
from repro.experiments.common import format_table, make_driver, make_testbed
from repro.mlrt.zoo import profile
from repro.scenarios.registry import fig13_latency_spec
from repro.scenarios.runner import build_arrivals, run_scenario
from repro.serverless.action import ActionSpec
from repro.sgx.epc import MB
from repro.workloads.metrics import LatencyStats, gb_seconds

NUM_NODES = 8

#: Figure 14's per-container memory budgets (Section VI-C)
FIG14_BUDGETS_MB = {
    ("DSNET", 1): 256,
    ("DSNET", 4): 384,
    ("RSNET", 1): 768,
    ("RSNET", 4): 1536,
}


def run_latency(
    model_name: str,
    systems=("Native", "Iso-reuse", "SeSeMI"),
    duration_s: float = 240.0,
) -> Dict[str, dict]:
    """Figure 13: per-system latency stats + timeline under MMPP.

    The experiment is declared as a :class:`~repro.scenarios.spec.ScenarioSpec`
    (``fig13_latency_spec``) and executed by the scenario runner, whose
    per-system metrics (``mean_s``, ``p95_s`` ..., ``completed``,
    ``timeline``) are the result.
    """
    spec = fig13_latency_spec(
        model_name, systems=systems, duration_s=duration_s
    )
    return run_scenario(spec).metrics["systems"]


def run_memory_cost(
    model_name: str,
    duration_s: float = 240.0,
) -> Dict[int, dict]:
    """Figure 14: GB-seconds with 1- vs 4-thread SeSeMI enclaves.

    Serves the Figure 13 trace (``fig13_latency_spec``'s workload: the
    20 rps warm-up, then the shifted MMPP) so both figures measure the
    same arrivals.
    """
    spec = fig13_latency_spec(model_name, duration_s=duration_s)
    arrivals, _sessions = build_arrivals(spec.workload, spec.seed)
    warmup_s = spec.workload.warmup_s
    out: Dict[int, dict] = {}
    for threads in (1, 4):
        models = servable_map([("m", profile(model_name), "tvm")])
        budget = FIG14_BUDGETS_MB[(model_name, threads)] * MB
        # threads-per-node capped at the 12 physical cores (Section VI-C)
        node_memory = (12 // threads) * budget
        bed = make_testbed(num_nodes=NUM_NODES, node_memory=node_memory)
        spec = ActionSpec(
            name="ep", image="semirt", memory_budget=budget, concurrency=threads
        )
        bed.platform.deploy(spec, semirt_factory(models, bed.cost, tcs_count=threads))
        driver = make_driver(bed)
        driver.submit_arrivals(arrivals)
        report = driver.run(until=warmup_s + duration_s + 3000.0)
        horizon = warmup_s + duration_s
        out[threads] = {
            "gb_seconds": gb_seconds(bed.controller.memory_timeline, horizon),
            "mean_s": LatencyStats.of(
                [r for r in report.results if r.submitted_at >= warmup_s]
            ).mean,
        }
    return out


def run(duration_s: float = 240.0) -> dict:
    """Run Figures 13 and 14 for both models."""
    return {
        "latency": {
            name: run_latency(name, duration_s=duration_s)
            for name in ("DSNET", "RSNET")
        },
        "memory": {
            name: run_memory_cost(name, duration_s=duration_s)
            for name in ("DSNET", "RSNET")
        },
        "duration_s": duration_s,
    }


def format_report(result: dict) -> str:
    """Render the experiment result as a paper-style text table."""
    lines = [
        "Figure 13 -- MMPP (20<->40 rps) on 8 nodes, TVM models.",
        "Paper: DSNET Iso-reuse 3.35s vs SeSeMI 0.64s; RSNET 12.54s vs 8.28s;",
        "Native is far worse on both.",
        "",
    ]
    from repro.workloads.sparkline import labelled_sparkline

    for model_name, systems in result["latency"].items():
        rows = [
            (system, data["mean_s"], data["p95_s"], data["completed"])
            for system, data in systems.items()
        ]
        lines.append(f"TVM-{model_name}:")
        lines.append(
            format_table(["system", "mean (s)", "p95 (s)", "completed"], rows)
        )
        for system, data in systems.items():
            series = [v for _, v in data["timeline"]]
            lines.append("  " + labelled_sparkline(system, series))
        lines.append("")
    lines += [
        "Figure 14 -- memory cost (GB-seconds) under the same MMPP workload.",
        "Paper: DSNET 3543 (TVM-1) -> 1459 (TVM-4); RSNET 2273 -> 1179.",
        "",
    ]
    for model_name, threads in result["memory"].items():
        rows = [
            (f"TVM-{model_name}-{t}", data["gb_seconds"], data["mean_s"])
            for t, data in threads.items()
        ]
        lines.append(
            format_table(["config", "GB-seconds", "mean latency (s)"], rows)
        )
        reduction = 1 - threads[4]["gb_seconds"] / max(threads[1]["gb_seconds"], 1e-9)
        lines.append(f"cost reduction with 4 threads: {reduction:.0%}")
        lines.append("")
    return "\n".join(lines)
