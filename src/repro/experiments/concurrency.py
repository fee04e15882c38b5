"""Wall-clock concurrency benchmark for the TCS-slot scheduler (fig14-style).

The paper's Figure 14 argument is that one multi-threaded SeMIRT enclave
serves concurrent requests nearly as fast as several single-threaded
ones at a fraction of the memory.  This experiment measures the
*functional* (real-crypto) half of that claim on the hot path:

- throughput of one enclave at ``tcs_count=1`` vs ``tcs_count=4``,
  serving a batch through :meth:`UserSession.infer_many`;
- a queue-depth sweep showing the admission queue's backpressure
  (:class:`~repro.errors.QueueFull`) under a submit burst.

Requests are *paced* to a fixed per-request service-time floor
(:attr:`SchedulerConfig.paced_service_s`): the functional twin executes
tiny stand-in models in microseconds-to-milliseconds, so an unpaced run
on one core would measure the Python GIL, not the scheduler.  The floor
models the on-hardware execution time (cf. ``docs/calibration.md``:
TVM hot execution is ~66 ms on real SGX hardware) and -- because the
pacing sleep releases the GIL -- paced requests genuinely overlap
across TCS slots the way enclave threads do on real cores.  The
overlap is verified from the trace itself: the run reports the maximum
number of simultaneously-open ``ecall:EC_MODEL_INF`` spans and the
distinct ``tcs_slot`` attributes that served them.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.semirt import SchedulerConfig
from repro.errors import QueueFull
from repro.experiments.common import live_host
from repro.mlrt.zoo import build_mobilenet

MODEL_ID = "conc-model"


def _max_overlap(spans: Iterable) -> int:
    """Peak number of simultaneously-open spans (sweep line)."""
    edges: List[tuple] = []
    for span in spans:
        if span.end_time is None:
            continue
        edges.append((span.start, 1))
        edges.append((span.end_time, -1))
    edges.sort()
    peak = current = 0
    for _, delta in edges:
        current += delta
        peak = max(peak, current)
    return peak


def _throughput_run(
    tcs_count: int,
    requests: int,
    paced_s: Optional[float],
    model_seed: int = 7,
) -> Tuple[dict, list]:
    """Serve one paced batch on a fresh ``tcs_count``-TCS enclave.

    Returns the throughput row and the spans of the timed batch (what
    ``repro trace concurrency`` dumps).
    """
    model = build_mobilenet(seed=model_seed)
    scheduler = SchedulerConfig(
        queue_depth=max(16, requests), paced_service_s=paced_s
    )
    x = np.zeros(model.input_spec.shape, dtype=np.float32)
    with live_host(model, MODEL_ID, scheduler, tcs_count=tcs_count) as live:
        live.session.infer(x)  # cold start: load + key fetch, off the clock
        live.env.tracer.clear()
        started = time.perf_counter()
        live.session.infer_many([x] * requests)
        elapsed = time.perf_counter() - started
        spans = live.env.tracer.finished_spans()
        inf_spans = [s for s in spans if s.name == "ecall:EC_MODEL_INF"]
        waits = [
            s.attributes["queue_wait"]
            for s in inf_spans
            if s.attributes.get("queue_wait") is not None
        ]
        result = {
            "tcs_count": tcs_count,
            "requests": requests,
            "elapsed_s": elapsed,
            "throughput_rps": requests / elapsed,
            "max_overlap": _max_overlap(inf_spans),
            "tcs_slots": sorted(
                {s.attributes.get("tcs_slot") for s in inf_spans}
            ),
            "mean_queue_wait_ms": (
                1e3 * sum(waits) / len(waits) if waits else 0.0
            ),
        }
    return result, spans


def _queue_sweep(
    tcs_count: int,
    queue_depths: Sequence[int],
    paced_s: Optional[float],
    model_seed: int,
) -> List[dict]:
    """Burst-submit against bounded queues, counting rejections."""
    model = build_mobilenet(seed=model_seed)
    x = np.zeros(model.input_spec.shape, dtype=np.float32)
    rows = []
    for depth in queue_depths:
        scheduler = SchedulerConfig(queue_depth=depth, paced_service_s=paced_s)
        with live_host(model, MODEL_ID, scheduler, tcs_count=tcs_count) as live:
            host, user = live.host, live.env.user("user")
            enc = user.encrypt_request(MODEL_ID, host.measurement, x)
            host.infer(enc, user.principal_id, MODEL_ID)  # cold start off the burst
            burst = 2 * (depth + tcs_count) + 4
            accepted, rejected, tickets = 0, 0, []
            for _ in range(burst):
                try:
                    tickets.append(host.submit(enc, user.principal_id, MODEL_ID))
                    accepted += 1
                except QueueFull:
                    rejected += 1
            for ticket in tickets:
                ticket.result()
        rows.append(
            {
                "queue_depth": depth,
                "burst": burst,
                "accepted": accepted,
                "rejected": rejected,
            }
        )
    return rows


def run(
    requests: int = 24,
    paced_ms: float = 50.0,
    tcs_counts: Sequence[int] = (1, 4),
    queue_depths: Sequence[int] = (1, 4, 16),
    model_seed: int = 7,
) -> dict:
    """Measure hot-path throughput vs ``tcs_count`` plus the queue sweep.

    Returns a result dict with one throughput row per entry of
    ``tcs_counts``, the end-to-end ``speedup`` of the last entry over the
    first, and the backpressure sweep at the highest TCS count.
    """
    paced_s = paced_ms / 1e3 if paced_ms > 0 else None
    throughput = [
        _throughput_run(tcs, requests, paced_s, model_seed)[0]
        for tcs in tcs_counts
    ]
    speedup = (
        throughput[-1]["throughput_rps"] / throughput[0]["throughput_rps"]
        if len(throughput) > 1
        else 1.0
    )
    sweep = _queue_sweep(max(tcs_counts), queue_depths, paced_s, model_seed)
    return {
        "requests": requests,
        "paced_ms": paced_ms,
        "throughput": throughput,
        "speedup": speedup,
        "queue_sweep": sweep,
    }


def format_report(result: dict) -> str:
    """Render the result dict as the two paper-style tables."""
    lines = [
        f"hot-path throughput, {result['requests']} requests, "
        f"paced to {result['paced_ms']:.0f} ms/request",
        f"{'tcs':>4} {'rps':>8} {'elapsed':>9} {'overlap':>8} "
        f"{'slots':>12} {'q-wait':>9}",
    ]
    for row in result["throughput"]:
        slots = ",".join(str(s) for s in row["tcs_slots"])
        lines.append(
            f"{row['tcs_count']:>4} {row['throughput_rps']:>8.1f} "
            f"{row['elapsed_s']:>8.2f}s {row['max_overlap']:>8} "
            f"{slots:>12} {row['mean_queue_wait_ms']:>7.1f}ms"
        )
    lines.append(f"speedup ({result['throughput'][-1]['tcs_count']} vs "
                 f"{result['throughput'][0]['tcs_count']} TCS): "
                 f"{result['speedup']:.2f}x")
    lines.append("")
    lines.append("admission-queue backpressure (submit burst, QueueFull counts)")
    lines.append(f"{'depth':>6} {'burst':>6} {'accepted':>9} {'rejected':>9}")
    for row in result["queue_sweep"]:
        lines.append(
            f"{row['queue_depth']:>6} {row['burst']:>6} "
            f"{row['accepted']:>9} {row['rejected']:>9}"
        )
    return "\n".join(lines)


def collect_trace(requests: int = 8, paced_ms: float = 50.0) -> list:
    """Spans of one small 4-TCS batch (for ``repro trace concurrency``)."""
    return _throughput_run(4, requests, paced_ms / 1e3)[1]
