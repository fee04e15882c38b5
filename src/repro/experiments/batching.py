"""Wall-clock benchmark for live hot-path micro-batching.

The simulation twin (``bench_ext_batching.py``) shows batching raising
saturation throughput above the unbatched CPU ceiling.  This experiment
measures the *functional* (real-crypto) half of the same claim: one
4-TCS :class:`~repro.core.semirt.SemirtHost` serving a hot batch via
``UserSession.infer_many``, with and without the scheduler's batch
accumulator (``SchedulerConfig.batch``).

Pacing here is **busy** (:attr:`SchedulerConfig.paced_busy`): the
worker holds the CPU for the service-time floor instead of sleeping it
off.  That models the compute-bound regime -- fewer cores than TCS
threads -- which is exactly where micro-batching pays: unbatched
workers contend for the CPU and serialise, while a batch leader spends
one sub-linear :meth:`~repro.core.batching.BatchPolicy.batch_cost_s`
floor for the whole batch.  (With the GIL as the stand-in single core,
the functional twin reproduces the regime faithfully.)  A sleep-paced
host, by contrast, overlaps singles perfectly across slots and has
nothing for batching to amortise -- that regime is what
``repro run concurrency`` measures.

The batching win is verified from the trace itself: the run reports the
``ecall:EC_MODEL_INF_BATCH`` spans' ``batch_size`` distribution and the
total ``amortised_s`` they claim, alongside the measured speedup, which
``run()`` gates at :data:`SPEEDUP_GATE` (``repro run batching`` exits 1
below it).
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from repro.core.batching import BatchPolicy
from repro.core.semirt import SchedulerConfig
from repro.experiments.common import format_gates, live_host
from repro.mlrt.zoo import build_mobilenet

MODEL_ID = "batch-model"

#: ``repro run batching`` (and so the CI ``bench`` job) fails below this
#: batched-vs-unbatched throughput ratio; typical runs measure 1.6-1.8x
#: (docs/performance.md), the floor leaves room for a shared runner
SPEEDUP_GATE = 1.3


def _throughput_run(
    policy: Optional[BatchPolicy],
    requests: int,
    paced_s: float,
    tcs_count: int = 4,
    model_seed: int = 7,
) -> Tuple[dict, list]:
    """Serve one hot burst on a fresh host, batched or not.

    Returns the throughput row and the spans of the timed burst (what
    ``repro trace batching`` dumps).
    """
    model = build_mobilenet(seed=model_seed)
    scheduler = SchedulerConfig(
        queue_depth=max(16, requests),
        paced_service_s=paced_s,
        paced_busy=True,
        batch=policy,
    )
    x = np.zeros(model.input_spec.shape, dtype=np.float32)
    with live_host(model, MODEL_ID, scheduler, tcs_count=tcs_count) as live:
        live.session.infer(x)  # cold start: load + key fetch, off the clock
        live.env.tracer.clear()
        started = time.perf_counter()
        live.session.infer_many([x] * requests)
        elapsed = time.perf_counter() - started
        spans = live.env.tracer.finished_spans()
        batch_spans = [
            s for s in spans if s.name == "ecall:EC_MODEL_INF_BATCH"
        ]
        single_spans = [s for s in spans if s.name == "ecall:EC_MODEL_INF"]
        sizes: List[int] = sorted(
            s.attributes["batch_size"] for s in batch_spans
        )
        result = {
            "max_batch": policy.max_batch if policy is not None else 1,
            "requests": requests,
            "elapsed_s": elapsed,
            "throughput_rps": requests / elapsed,
            "batch_ecalls": len(batch_spans),
            "single_ecalls": len(single_spans),
            "batch_sizes": sizes,
            "amortised_s": sum(
                s.attributes.get("amortised_s") or 0.0 for s in batch_spans
            ),
        }
    return result, spans


def run(
    requests: int = 24,
    paced_ms: float = 80.0,
    max_batch: int = 4,
    window_ms: float = 50.0,
    tcs_count: int = 4,
    model_seed: int = 7,
) -> dict:
    """Hot-path throughput at batch ``max_batch`` vs batch 1, same host shape.

    Both runs use the same 4-TCS build and the same busy pacing floor;
    only ``SchedulerConfig.batch`` differs.  Returns the two rows plus
    ``speedup`` (batched over unbatched), gated at
    :data:`SPEEDUP_GATE`.
    """
    paced_s = paced_ms / 1e3
    unbatched, _ = _throughput_run(None, requests, paced_s, tcs_count, model_seed)
    policy = BatchPolicy(
        batch_window_s=window_ms / 1e3, max_batch=max_batch, alpha=0.6
    )
    batched, _ = _throughput_run(policy, requests, paced_s, tcs_count, model_seed)
    speedup = batched["throughput_rps"] / unbatched["throughput_rps"]
    gates = {"batching_pays": speedup >= SPEEDUP_GATE}
    return {
        "requests": requests,
        "paced_ms": paced_ms,
        "tcs_count": tcs_count,
        "window_ms": window_ms,
        "unbatched": unbatched,
        "batched": batched,
        "speedup": speedup,
        "gate": SPEEDUP_GATE,
        "gates": gates,
        "pass": all(gates.values()),
    }


def format_report(result: dict) -> str:
    """Render the two rows, the speedup line and the gate verdict."""
    lines = [
        f"live hot-path micro-batching, {result['requests']} requests, "
        f"busy-paced to {result['paced_ms']:.0f} ms/request, "
        f"{result['tcs_count']} TCS",
        f"{'batch':>6} {'rps':>8} {'elapsed':>9} {'batch ecalls':>13} "
        f"{'sizes':>12} {'amortised':>10}",
    ]
    for row in (result["unbatched"], result["batched"]):
        sizes = ",".join(str(s) for s in row["batch_sizes"]) or "-"
        lines.append(
            f"{row['max_batch']:>6} {row['throughput_rps']:>8.1f} "
            f"{row['elapsed_s']:>8.2f}s {row['batch_ecalls']:>13} "
            f"{sizes:>12} {row['amortised_s']:>9.3f}s"
        )
    lines.append(
        f"speedup (batch {result['batched']['max_batch']} vs 1): "
        f"{result['speedup']:.2f}x (gate >= {result['gate']:.1f}x)"
    )
    lines.append(format_gates(result))
    return "\n".join(lines)


def collect_trace(requests: int = 8, paced_ms: float = 80.0) -> list:
    """Spans of one small batched burst (for ``repro trace batching``)."""
    policy = BatchPolicy(batch_window_s=0.05, max_batch=4)
    return _throughput_run(policy, requests, paced_ms / 1e3)[1]
