"""Figures 13 & 14: multi-node MMPP serving -- latency and memory cost.

The cluster runs 8 invoker nodes; the workload is a Markov-modulated
Poisson process alternating between 20 and 40 rps (Section VI-C), with a
20 rps warm-up phase before measurement.

Figure 13 compares Native / Iso-reuse / SeSeMI on TVM-DSNET and
TVM-RSNET (the paper plots Native off the chart).

Figure 14 runs the same workload on SeSeMI with 1- vs 4-thread enclaves
and integrates reserved container memory over time into GB-seconds.
Memory budgets follow the paper: 256/384 MB for DSNET-1/-4 and
768/1536 MB for RSNET-1/-4.  The paper's means and costs are
:data:`ANCHORS`.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List

import numpy as np

from repro.core.simbridge import SemirtSimActor, servable_map
from repro.experiments.common import (
    Anchor,
    action_budget,
    deploy_single_model,
    format_table,
    latency_metrics,
    make_driver,
    make_testbed,
)
from repro.mlrt.zoo import profile
from repro.serverless.action import ActionSpec
from repro.sgx.epc import MB
from repro.workloads.arrival import Arrival, merge_arrivals, mmpp, poisson
from repro.workloads.metrics import (
    LatencyStats,
    gb_seconds,
    latency_timeline,
    throughput_rps,
)

NUM_NODES = 8

#: the trace's one RNG seed: every run serves the same arrivals
TRACE_SEED = 11
#: the 20 rps warm-up before measurement starts
WARMUP_S = 60.0

#: Figure 14's per-container memory budgets (Section VI-C)
FIG14_BUDGETS_MB = {
    ("DSNET", 1): 256,
    ("DSNET", 4): 384,
    ("RSNET", 1): 768,
    ("RSNET", 4): 1536,
}


def mmpp_trace(
    duration_s: float,
    *,
    warmup_s: float = WARMUP_S,
    seed: int = TRACE_SEED,
    model_id: str = "m",
) -> List[Arrival]:
    """The Figure 13 arrival trace: a 20 rps Poisson warm-up, then the
    20<->40 rps MMPP (60 s phases) shifted past it.

    One RNG draws both, warm-up first, so the trace is a pure function
    of ``seed``.  Figure 14 and the warm-pool sweep's MMPP workload
    serve it too.
    """
    rng = np.random.default_rng(seed)
    warm = poisson(20.0, warmup_s, model_id, user_id="u", rng=rng)
    main = mmpp((20.0, 40.0), 60.0, duration_s, model_id, user_id="u", rng=rng)
    shifted = [Arrival(a.time + warmup_s, a.model_id, a.user_id) for a in main]
    return merge_arrivals(warm, shifted)


def run_latency(
    model_name: str,
    systems=("Native", "Iso-reuse", "SeSeMI"),
    duration_s: float = 240.0,
) -> Dict[str, dict]:
    """Figure 13: per-system latency stats + timeline under MMPP.

    Each system serves :func:`mmpp_trace` from one TVM endpoint on
    :data:`NUM_NODES` nodes of twelve action budgets each; requests
    submitted during the warm-up are not measured.
    """
    arrivals = mmpp_trace(duration_s)
    servable = servable_map([("m", profile(model_name), "tvm")])["m"]
    out: Dict[str, dict] = {}
    for system in systems:
        bed = make_testbed(
            num_nodes=NUM_NODES, node_memory=12 * action_budget(servable)
        )
        deploy_single_model(bed, system, model_name, "tvm")
        driver = make_driver(bed)
        driver.submit_arrivals(arrivals)
        report = driver.run(until=WARMUP_S + duration_s + 3000.0)
        measured = [r for r in report.results if r.submitted_at >= WARMUP_S]
        out[system] = {
            **latency_metrics(LatencyStats.of(measured)),
            "completed": len(measured),
            "throughput_rps": throughput_rps(measured),
            "timeline": latency_timeline(measured, bucket_s=20.0),
        }
    return out


def run_memory_cost(
    model_name: str,
    duration_s: float = 240.0,
) -> Dict[int, dict]:
    """Figure 14: GB-seconds with 1- vs 4-thread SeSeMI enclaves.

    Serves the Figure 13 trace (:func:`mmpp_trace`) so both figures
    measure the same arrivals.
    """
    arrivals = mmpp_trace(duration_s)
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
        bed.platform.deploy(
            spec, partial(SemirtSimActor, models, bed.cost, tcs_count=threads)
        )
        driver = make_driver(bed)
        driver.submit_arrivals(arrivals)
        report = driver.run(until=WARMUP_S + duration_s + 3000.0)
        horizon = WARMUP_S + duration_s
        out[threads] = {
            "gb_seconds": gb_seconds(bed.controller.memory_timeline, horizon),
            "mean_s": LatencyStats.of(
                [r for r in report.results if r.submitted_at >= WARMUP_S]
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


#: the paper's Figure 13 mean latencies (s)
PAPER_MEAN_S = {("DSNET", "Iso-reuse"): 3.35, ("DSNET", "SeSeMI"): 0.64,
                ("RSNET", "Iso-reuse"): 12.54, ("RSNET", "SeSeMI"): 8.28}
#: the paper's Figure 14 GB-seconds per (model, threads)
PAPER_GB_S = {("DSNET", 1): 3543, ("DSNET", 4): 1459, ("RSNET", 1): 2273, ("RSNET", 4): 1179}


def _mean(model: str, system: str):
    return lambda r: r["latency"][model][system]["mean_s"]


def _gb_s(model: str, threads: int):
    return lambda r: r["memory"][model][threads]["gb_seconds"]


def _faster(model: str, fast: str, slow: str, **kw) -> Anchor:
    """An order: ``fast``'s mean latency under ``slow``'s on ``model``."""
    paper = tuple(PAPER_MEAN_S.get((model, s), "off the chart") for s in (fast, slow))
    return Anchor(f"13 {model}: {fast} < {slow} mean", paper, lambda r: (
        _mean(model, fast)(r), _mean(model, slow)(r)), "order", unit="s", **kw)


def _cut(model: str, lo: float, hi: float) -> Anchor:
    """Figure 14's cost reduction from 1- to 4-thread enclaves."""
    one, four = _gb_s(model, 1), _gb_s(model, 4)
    return Anchor(f"14 {model}: cost cut with 4 threads",
                  1 - PAPER_GB_S[model, 4] / PAPER_GB_S[model, 1],
                  lambda r: 1 - four(r) / one(r), "band", lo, hi, unit="%")


ANCHORS = (
    _faster("DSNET", "SeSeMI", "Iso-reuse"),
    _faster("DSNET", "SeSeMI", "Native"),
    Anchor("13 DSNET: SeSeMI mean", PAPER_MEAN_S["DSNET", "SeSeMI"], _mean("DSNET", "SeSeMI"),
           "threshold", hi=1.5, unit="s"),
    _faster("RSNET", "SeSeMI", "Iso-reuse"),
    _faster("DSNET", "Iso-reuse", "Native", report_only=True,
            why="both queue on the node's shared storage link (docs/calibration.md)"),
    _faster("RSNET", "Iso-reuse", "Native", report_only=True),
    Anchor("13 DSNET: Iso-reuse mean", PAPER_MEAN_S["DSNET", "Iso-reuse"],
           _mean("DSNET", "Iso-reuse"), "magnitude", unit="s",
           why="every request re-downloads the model over the shared link (docs/calibration.md)"),
    Anchor("13 RSNET: SeSeMI mean", PAPER_MEAN_S["RSNET", "SeSeMI"], _mean("RSNET", "SeSeMI"),
           "magnitude", unit="s", why="one inference holds one core here (docs/calibration.md)"),
    _cut("DSNET", 0.3, 0.8),
    _cut("RSNET", 0.25, 0.75),
    Anchor("14 TVM-DSNET-1", PAPER_GB_S["DSNET", 1], _gb_s("DSNET", 1), "magnitude",
           unit="GB-s", why="the warm-up fills the capped fleet, and keep-alive holds it "
           "(docs/calibration.md)"),
    Anchor("14 TVM-RSNET-1", PAPER_GB_S["RSNET", 1], _gb_s("RSNET", 1), "magnitude",
           unit="GB-s", why="inference busy time alone exceeds the paper's total "
           "(docs/calibration.md)"),
)


def format_report(result: dict) -> str:
    """Render the experiment result as a paper-style text table."""
    lines = [
        "Figure 13 -- MMPP (20<->40 rps) on 8 nodes, TVM models.",
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
