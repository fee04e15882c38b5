"""Table II: the price of stronger isolation on hot invocations.

The strong-isolation build (single inference, key cache disabled,
sequential processing, runtime buffer cleared per request, Section V)
cannot take the hot path: every request re-fetches keys over the live
KeyService session and re-initialises the model runtime.  We measure
steady-state request latency (SeMIRT-managed stages) with and without
the restrictions; the paper's TVM latencies are :data:`PAPER_MS` and
its slowdowns :data:`ANCHORS`.
"""

from __future__ import annotations

from functools import partial
from typing import List

from repro.core.simbridge import SemirtSimActor, servable_map
from repro.experiments.common import (
    Anchor,
    action_budget,
    format_table,
    make_driver,
    make_testbed,
)
from repro.mlrt.zoo import PROFILES, profile
from repro.serverless.action import ActionSpec
from repro.workloads.arrival import Arrival

PAPER_MS = {
    "TVM-MBNET": (65.79, 268.36),
    "TVM-RSNET": (982.96, 1265.00),
    "TVM-DSNET": (388.81, 587.79),
}


def _steady_state_seconds(model_name: str, strong_isolation: bool) -> float:
    bed = make_testbed(num_nodes=1)
    models = servable_map([("m", profile(model_name), "tvm")])
    factory = partial(
        SemirtSimActor,
        models,
        bed.cost,
        tcs_count=1,
        key_cache=not strong_isolation,
        reuse_runtime=not strong_isolation,
    )
    spec = ActionSpec(
        name="ep", image="semirt",
        memory_budget=action_budget(models["m"]), concurrency=1,
    )
    bed.platform.deploy(spec, factory)
    driver = make_driver(bed)
    # Serve a few requests; the last one is steady state (hot, or the
    # strong-isolation equivalent of hot).
    driver.submit_arrivals(
        [Arrival(time=20.0 * i, model_id="m", user_id="u") for i in range(4)]
    )
    report = driver.run(until=600)
    last = max(report.results, key=lambda r: r.submitted_at)
    return sum(v for k, v in last.stage_seconds.items() if k != "sandbox_init")


def run() -> dict:
    """Measure steady-state latency with and without strong isolation."""
    rows: List[tuple] = []
    for model_name in PROFILES:
        without = _steady_state_seconds(model_name, strong_isolation=False)
        with_iso = _steady_state_seconds(model_name, strong_isolation=True)
        label = f"TVM-{model_name}"
        paper_without, paper_with = PAPER_MS[label]
        rows.append(
            (
                label,
                without * 1000,
                with_iso * 1000,
                with_iso / without,
                paper_without,
                paper_with,
            )
        )
    return {"rows": rows}


ANCHORS = tuple(
    Anchor(f"{label} slowdown", with_iso / without,
           lambda r, label=label: next(row[3] for row in r["rows"] if row[0] == label),
           "band", max(0.65 * with_iso / without, 1.2), 1.35 * with_iso / without, unit="x")
    for label, (without, with_iso) in PAPER_MS.items()
)


def format_report(result: dict) -> str:
    """Render the experiment result as a paper-style text table."""
    headers = [
        "config", "without (ms)", "with isolation (ms)", "slowdown",
        "paper without (ms)", "paper with (ms)",
    ]
    lines = [
        "Table II -- overhead of stronger isolation on hot invocations (TVM).",
        "",
        format_table(headers, result["rows"]),
    ]
    return "\n".join(lines)
