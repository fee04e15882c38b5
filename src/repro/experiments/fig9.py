"""Figure 9: execution time under different invocation paths.

For each (model, framework) we measure the SeMIRT-managed execution time
(sandbox init excluded, as in the paper) of:

- **cold**: new enclave, full pipeline;
- **warm**: enclave alive, wrong model loaded -> reload + runtime init;
- **hot**: model + runtime + keys cached -> decrypt/execute/encrypt only;
- **untrusted**: no SGX, model loaded from storage each time;
- **untrusted-cached**: no SGX, model resident.

The paper's factors, and how close the measurement must come, are
:data:`ANCHORS`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.simbridge import servable_map
from repro.core.stages import Stage
from repro.experiments.common import (
    Anchor,
    action_budget,
    format_table,
    make_driver,
    make_testbed,
    system_factory,
)
from repro.mlrt.zoo import FRAMEWORKS, PROFILES, profile
from repro.serverless.action import ActionSpec
from repro.workloads.arrival import Arrival


def _managed_seconds(result) -> float:
    return sum(v for k, v in result.stage_seconds.items() if k != "sandbox_init")


def _run_sesemi_paths(model_name: str, framework: str) -> Dict[str, float]:
    """cold / warm / hot for SeSeMI by loading a decoy model in between."""
    bed = make_testbed(num_nodes=1)
    models = servable_map(
        [("m", profile(model_name), framework), ("decoy", profile("MBNET"), framework)]
    )
    budget = max(action_budget(m) for m in models.values())
    spec = ActionSpec(name="ep", image="semirt", memory_budget=budget, concurrency=1)
    bed.platform.deploy(spec, system_factory("SeSeMI", models, bed.cost))
    driver = make_driver(bed)
    driver.submit_arrivals(
        [
            Arrival(time=0.0, model_id="m", user_id="u"),      # cold
            Arrival(time=100.0, model_id="decoy", user_id="u"),  # evicts the model
            Arrival(time=120.0, model_id="m", user_id="u"),    # warm: reload model
            Arrival(time=140.0, model_id="m", user_id="u"),    # hot
        ]
    )
    report = driver.run(until=600)
    by_time = sorted(report.results, key=lambda r: r.submitted_at)
    # The decoy eviction also evicted the user's cached key pair (the
    # cache holds a single <uid, M_oid> entry); the paper's *warm* path
    # keeps the same user's request key, so subtract the key re-fetch.
    warm_result = by_time[2]
    warm = _managed_seconds(warm_result) - warm_result.stage_seconds.get(
        Stage.KEY_RETRIEVAL.value, 0.0
    )
    return {
        "cold": _managed_seconds(by_time[0]),
        "warm": warm,
        "hot": _managed_seconds(by_time[3]),
    }


def _run_untrusted(model_name: str, framework: str) -> Dict[str, float]:
    bed = make_testbed(num_nodes=1)
    models = servable_map([("m", profile(model_name), framework)])
    spec = ActionSpec(
        name="ep", image="untrusted", memory_budget=action_budget(models["m"]),
        concurrency=1,
    )
    bed.platform.deploy(spec, system_factory("Untrusted", models, bed.cost))
    driver = make_driver(bed)
    driver.submit_arrivals(
        [
            Arrival(time=0.0, model_id="m", user_id="u"),   # loads the model
            Arrival(time=100.0, model_id="m", user_id="u"),  # cached
        ]
    )
    report = driver.run(until=400)
    by_time = sorted(report.results, key=lambda r: r.submitted_at)
    return {
        "untrusted": _managed_seconds(by_time[0]),
        "untrusted_cached": _managed_seconds(by_time[1]),
    }


def run() -> dict:
    """Run the experiment; returns structured rows and per-config details."""
    rows: List[tuple] = []
    details = {}
    for framework in FRAMEWORKS:
        for model_name in PROFILES:
            paths = _run_sesemi_paths(model_name, framework)
            paths.update(_run_untrusted(model_name, framework))
            label = f"{framework.upper()}-{model_name}"
            details[label] = paths
            rows.append(
                (
                    label,
                    paths["cold"],
                    paths["warm"],
                    paths["hot"],
                    paths["untrusted"],
                    paths["untrusted_cached"],
                    paths["cold"] / paths["hot"],
                    paths["cold"] / paths["warm"],
                )
            )
    return {"rows": rows, "details": details}


def _ratio(label: str, top: str, bottom: str):
    return lambda r: r["details"][label][top] / r["details"][label][bottom]


ANCHORS = (
    Anchor("TVM-MBNET cold/hot", 21.0, _ratio("TVM-MBNET", "cold", "hot"), "band", 17.85, 24.15,
           unit="x", why="cold key retrieval is short of its budget (docs/calibration.md)"),
    Anchor("TVM-MBNET cold/warm", 11.0, _ratio("TVM-MBNET", "cold", "warm"), "band", 8.8, 13.2,
           unit="x"),
)


def format_report(result: dict) -> str:
    """Render the experiment result as a paper-style text table."""
    headers = [
        "config", "cold (s)", "warm (s)", "hot (s)",
        "untrusted (s)", "untrusted cached (s)", "cold/hot", "cold/warm",
    ]
    lines = [
        "Figure 9 -- execution time under different invocation paths",
        "(sandbox init excluded).",
        "",
        format_table(headers, result["rows"]),
    ]
    return "\n".join(lines)
