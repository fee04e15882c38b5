"""Figure 10: enclave memory saving from concurrent execution.

Serving *n* concurrent requests from one enclave needs the model once
plus one runtime buffer per thread; serving them from *n* single-thread
enclaves replicates the whole enclave.  The saving therefore depends on
λ = runtime-buffer-size / model-size: TFLM (small intermediate-only
buffers, λ << 1) saves far more than TVM (buffers embed weight copies,
λ > 1).  The paper's peak saving, TFLM-RSNET's at 8 threads, is
:data:`ANCHORS`.
"""

from __future__ import annotations

from typing import List

from repro.core.simbridge import ServableModel
from repro.experiments.common import Anchor, format_table
from repro.mlrt.zoo import FRAMEWORKS, PROFILES

THREAD_COUNTS = (1, 2, 4, 8)


def memory_saving(servable: ServableModel, threads: int) -> float:
    """1 - shared-enclave memory / replicated-enclave memory."""
    shared = servable.enclave_bytes + (threads - 1) * servable.buffer_bytes
    replicated = threads * servable.enclave_bytes
    return 1.0 - shared / replicated


def run() -> dict:
    """Run the experiment; returns per-config saving rows and the peak."""
    rows: List[tuple] = []
    peak = ("", 0.0)
    for framework in FRAMEWORKS:
        for model_name, prof in PROFILES.items():
            servable = ServableModel(profile=prof, framework=framework)
            lam = prof.lam[framework]
            savings = [memory_saving(servable, n) for n in THREAD_COUNTS]
            label = f"{framework.upper()}-{model_name}"
            if savings[-1] > peak[1]:
                peak = (label, savings[-1])
            rows.append((label, lam, *savings))
    return {"rows": rows, "thread_counts": THREAD_COUNTS, "peak": peak}


ANCHORS = (
    Anchor("peak saving at 8 threads (TFLM-RSNET)", 0.862, lambda r: r["peak"][1], "band",
           0.782, 0.942, unit="%", why="this model counts the configured enclave sizes, while "
           "the paper measured peak resident pages, which credits lazily allocated pages as saved"),
)


def format_report(result: dict) -> str:
    """Render the experiment result as a paper-style text table."""
    headers = ["config", "lambda"] + [
        f"{n} threads" for n in result["thread_counts"]
    ]
    label, saving = result["peak"]
    lines = [
        "Figure 10 -- enclave memory saving vs concurrency",
        "(lambda = runtime buffer size / model size).",
        f"Peak saving: {label} at {saving:.1%} with 8 threads.",
        "",
        format_table(headers, result["rows"]),
    ]
    return "\n".join(lines)
