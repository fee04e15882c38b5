"""Table I: the evaluation models and their runtime buffer sizes.

Reproduced two ways: the published profile numbers used by the
simulator, and the *measured* buffer relationship on the scaled-down
runnable models (TFLM buffer << TVM buffer because TVM copies weights),
held to the profile's relations by :data:`ANCHORS`.
"""

from __future__ import annotations


from repro.experiments.common import Anchor, format_table
from repro.mlrt.framework import get_framework
from repro.mlrt.zoo import MB, PROFILES


def run() -> dict:
    """Produce Table I rows plus a measured cross-check on the tiny models."""
    rows = []
    measured = []
    for name, prof in PROFILES.items():
        rows.append(
            (
                name,
                f"{prof.model_bytes // MB}MB",
                f"{prof.tvm_buffer_bytes // MB}MB",
                f"{prof.tflm_buffer_bytes // MB}MB",
            )
        )
        model = prof.builder()
        tvm_rt = get_framework("tvm").create_runtime(model)
        tflm_rt = get_framework("tflm").create_runtime(model)
        measured.append(
            (
                name,
                model.weight_bytes,
                tvm_rt.buffer_bytes,
                tflm_rt.buffer_bytes,
            )
        )
    return {"paper_rows": rows, "measured_rows": measured}


#: measured rows are (name, weights, TVM buffer, TFLM buffer) bytes
ANCHORS = (
    Anchor("TFLM buffer / TVM buffer (largest model)",
           max(p.tflm_buffer_bytes / p.tvm_buffer_bytes for p in PROFILES.values()),
           lambda r: max(row[3] / row[2] for row in r["measured_rows"]), "threshold", hi=1.0,
           unit="x"),
    Anchor("model / TVM buffer (largest model)",
           max(p.model_bytes / p.tvm_buffer_bytes for p in PROFILES.values()),
           lambda r: max(row[1] / row[2] for row in r["measured_rows"]), "threshold", hi=1.0,
           unit="x"),
)


def format_report(result: dict) -> str:
    """Render the experiment result as a paper-style text table."""
    lines = ["Table I -- models for the evaluation (paper profile values)", ""]
    lines.append(
        format_table(
            ["Name", "Model size", "TVM buffer", "TFLM buffer"], result["paper_rows"]
        )
    )
    lines += ["", "Measured on the runnable scaled-down models (bytes):", ""]
    lines.append(
        format_table(
            ["Name", "weights", "TVM buffer", "TFLM buffer"],
            result["measured_rows"],
        )
    )
    return "\n".join(lines)
