"""Figure 8: latency ratio of the serving stages for a cold invocation.

For each (model, framework) pair we cold-start one SeSeMI instance,
serve one request, and break its latency into the SeMIRT-managed stages
(sandbox initialisation excluded, as in the paper's figure).  The paper's
headline observation -- enclave initialisation + key fetching dominate
cold latency for TVM models -- is :data:`ANCHORS`.

The breakdown is derived **from the request's span tree** via
:mod:`repro.obs.analysis`: the testbed runs with a virtual-time tracer
attached, and per-stage seconds are read off the stage spans (following
the cold-start adoption link into the container-startup trace) rather
than off the invocation result.  The result's own ``stage_seconds`` is
kept as a cross-check only.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.stages import Stage
from repro.errors import SeSeMIError
from repro.experiments.common import (
    Anchor,
    deploy_single_model,
    format_table,
    make_driver,
    make_testbed,
)
from repro.mlrt.zoo import FRAMEWORKS, PROFILES
from repro.obs import analysis
from repro.workloads.arrival import Arrival

#: the stage order of the figure's stacked bars
STAGE_ORDER = (
    Stage.ENCLAVE_INIT.value,
    Stage.KEY_RETRIEVAL.value,
    Stage.MODEL_LOADING.value,
    Stage.MODEL_DECRYPT.value,
    Stage.RUNTIME_INIT.value,
    Stage.REQUEST_DECRYPT.value,
    Stage.MODEL_INFERENCE.value,
    Stage.RESULT_ENCRYPT.value,
)


def traced_cold_request(model_name: str, framework: str, system: str = "SeSeMI"):
    """Serve one cold request on a traced testbed.

    Returns ``(spans, result)``: the full virtual-time span dump and the
    invocation result.  Shared by Figure 8, Figures 17/18, and the
    ``python -m repro trace`` subcommand.
    """
    bed = make_testbed(num_nodes=1, traced=True)
    deploy_single_model(bed, system, model_name, framework)
    driver = make_driver(bed)
    driver.submit_arrivals([Arrival(time=0.0, model_id="m", user_id="u")])
    report = driver.run(until=400)
    (result,) = report.results
    return bed.tracer.finished_spans(), result


def cold_stage_seconds(model_name: str, framework: str) -> Dict[str, float]:
    """Stage durations of one cold SeSeMI invocation, read from spans."""
    spans, result = traced_cold_request(model_name, framework)
    (root,) = analysis.request_roots(spans)
    stages = analysis.stage_seconds(spans, root)
    stages.pop(Stage.SANDBOX_INIT.value, None)
    _check_against_result(stages, result.stage_seconds)
    return stages


def _check_against_result(stages: Dict[str, float], recorded: Dict[str, float]) -> None:
    """Cross-check span-derived stage times against the result record.

    The span tree is the source of truth for the figure; the invocation
    result's ``stage_seconds`` (the pre-tracing bookkeeping) must agree
    to float noise, or the trace instrumentation has drifted.
    """
    for stage, seconds in stages.items():
        if abs(recorded.get(stage, 0.0) - seconds) > 1e-6:
            raise SeSeMIError(
                f"span-derived {stage} = {seconds} disagrees with "
                f"recorded {recorded.get(stage, 0.0)}"
            )


def run() -> dict:
    """Run the experiment; returns structured rows and per-config details."""
    rows: List[tuple] = []
    details = {}
    for framework in FRAMEWORKS:
        for model_name in PROFILES:
            stages = cold_stage_seconds(model_name, framework)
            total = sum(stages.values())
            fractions = {k: v / total for k, v in stages.items()}
            trust_share = fractions.get(Stage.ENCLAVE_INIT.value, 0.0) + fractions.get(
                Stage.KEY_RETRIEVAL.value, 0.0
            )
            label = f"{framework.upper()}-{model_name}"
            details[label] = {"seconds": stages, "fractions": fractions, "total": total}
            rows.append(
                (
                    label,
                    total,
                    *(fractions.get(stage, 0.0) for stage in STAGE_ORDER),
                    trust_share,
                )
            )
    return {"rows": rows, "details": details, "stage_order": STAGE_ORDER}


ANCHORS = (
    Anchor("TVM: enclave init + key share of cold latency (lowest model)", 0.6,
           lambda r: min(row[-1] for row in r["rows"] if row[0].startswith("TVM")),
           "threshold", lo=0.6, unit="%"),
)


def format_report(result: dict) -> str:
    """Render the experiment result as a paper-style text table."""
    headers = ["config", "cold total (s)"] + [
        s.replace("model_", "").replace("_", " ") for s in result["stage_order"]
    ] + ["encl+key share"]
    lines = [
        "Figure 8 -- latency ratio of serving stages (cold invocation,",
        "sandbox init excluded).",
        "",
        format_table(headers, result["rows"]),
    ]
    return "\n".join(lines)
