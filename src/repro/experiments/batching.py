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
``repro concurrency`` measures.

The batching win is verified from the trace itself: the run reports the
``ecall:EC_MODEL_INF_BATCH`` spans' ``batch_size`` distribution and the
total ``amortised_s`` they claim, alongside the measured speedup.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.core.batching import BatchPolicy
from repro.core.deployment import SeSeMIEnvironment
from repro.core.semirt import SchedulerConfig
from repro.core.semirt_enclave import default_semirt_config
from repro.mlrt.zoo import build_mobilenet

MODEL_ID = "batch-model"


def _throughput_run(
    policy: Optional[BatchPolicy],
    requests: int,
    paced_s: float,
    tcs_count: int,
    model_seed: int,
) -> dict:
    """Serve one hot burst on a fresh host, batched or not."""
    env = SeSeMIEnvironment()
    model = build_mobilenet(seed=model_seed)
    config = default_semirt_config(tcs_count=tcs_count)
    env.deploy(model, MODEL_ID, owner="owner", config=config).grant("user")
    scheduler = SchedulerConfig(
        queue_depth=max(16, requests),
        paced_service_s=paced_s,
        paced_busy=True,
        batch=policy,
    )
    host = env.launch_semirt("tvm", config=config, scheduler=scheduler)
    x = np.zeros(model.input_spec.shape, dtype=np.float32)
    with env.session("user", MODEL_ID, config=config, semirt=host) as session:
        session.infer(x)  # cold start: load + key fetch, off the clock
        env.tracer.clear()
        started = time.perf_counter()
        session.infer_many([x] * requests)
        elapsed = time.perf_counter() - started
        batch_spans = [
            s for s in env.tracer.finished_spans()
            if s.name == "ecall:EC_MODEL_INF_BATCH"
        ]
        single_spans = [
            s for s in env.tracer.finished_spans()
            if s.name == "ecall:EC_MODEL_INF"
        ]
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
    host.destroy()
    return result


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
    ``speedup`` (batched over unbatched) -- the acceptance target is
    >= 1.5x at batch 4.
    """
    paced_s = paced_ms / 1e3
    unbatched = _throughput_run(None, requests, paced_s, tcs_count, model_seed)
    policy = BatchPolicy(
        batch_window_s=window_ms / 1e3, max_batch=max_batch, alpha=0.6
    )
    batched = _throughput_run(policy, requests, paced_s, tcs_count, model_seed)
    return {
        "requests": requests,
        "paced_ms": paced_ms,
        "tcs_count": tcs_count,
        "window_ms": window_ms,
        "unbatched": unbatched,
        "batched": batched,
        "speedup": batched["throughput_rps"] / unbatched["throughput_rps"],
    }


def format_report(result: dict) -> str:
    """Render the two rows plus the speedup line."""
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
        f"{result['speedup']:.2f}x"
    )
    return "\n".join(lines)


def collect_trace(requests: int = 8, paced_ms: float = 80.0) -> list:
    """Spans of one small batched burst (for ``repro trace batching``)."""
    env = SeSeMIEnvironment()
    model = build_mobilenet()
    config = default_semirt_config(tcs_count=4)
    scheduler = SchedulerConfig(
        queue_depth=max(16, requests),
        paced_service_s=paced_ms / 1e3,
        paced_busy=True,
        batch=BatchPolicy(batch_window_s=0.05, max_batch=4),
    )
    env.deploy(model, MODEL_ID, owner="owner", config=config).grant("user")
    host = env.launch_semirt("tvm", config=config, scheduler=scheduler)
    x = np.zeros(model.input_spec.shape, dtype=np.float32)
    with env.session("user", MODEL_ID, config=config, semirt=host) as session:
        session.infer(x)
        session.infer_many([x] * requests)
    host.destroy()
    return env.tracer.finished_spans()
