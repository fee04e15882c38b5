"""Wall-clock benchmark for secure streaming inference.

The streaming plane decodes autoregressively inside the enclave
(``EC_MODEL_INF_STREAM`` / ``EC_STREAM_STEP``) with the KV cache pinned
in enclave memory, and the host's continuous batcher merges concurrent
same-``<uid, model>`` streams into one running group between decode
steps.  This experiment measures the claim that continuous batching
raises aggregate decode throughput without wrecking time-to-first-token:

- **solo lane**: N streams with no batch policy -- every stream decodes
  on its own TCS slot, one full busy-paced service floor per token;
- **grouped lane**: the same N streams with the continuous batcher
  armed -- one ``EC_STREAM_STEP`` advances the whole group for a
  sub-linear :meth:`~repro.core.batching.BatchPolicy.batch_cost_s`
  floor.

Pacing is **busy** (:attr:`SchedulerConfig.paced_busy`), the
compute-bound regime where amortisation pays (same rationale as
``repro run batching``).  Every decoded sequence is verified token-for-token
against an out-of-enclave :class:`~repro.mlrt.decoder.DecoderSession`
reference, so the speedup is measured on provably correct output.

Reported per lane: aggregate tokens/sec, TTFT mean/max (measured
host-side from stream admission to the first sealed frame), and the
``ecall:EC_STREAM_STEP`` span evidence (step count and batch-size
histogram).  The acceptance gate is grouped >= :data:`SPEEDUP_GATE` x
solo tokens/sec with the grouped TTFT max under
:data:`TTFT_CEILING_S` (``repro run streaming`` exits 1 on either miss).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.core.batching import BatchPolicy
from repro.core.semirt import SchedulerConfig
from repro.experiments.common import format_gates, live_host
from repro.mlrt.decoder import DecoderSession
from repro.mlrt.zoo import build_tinylm

MODEL_ID = "stream-model"

#: ``repro run streaming`` fails below this grouped-vs-solo ratio
SPEEDUP_GATE = 1.5

#: ... or above this grouped-lane time-to-first-token (seconds).  The
#: prefills of a joining group serialise on the busy pacer, so TTFT can
#: approach ``streams * paced_s``; the ceiling catches regressions an
#: aggregate-throughput gate would hide (e.g. batching prefills so hard
#: the first token stalls).
TTFT_CEILING_S = 1.0


def _prompts(streams: int) -> List[List[int]]:
    """Distinct short prompts, one per stream (same user, same model)."""
    return [[(i % 7) + 1, (i % 5) + 2, 3] for i in range(streams)]


def _lane(
    policy: Optional[BatchPolicy],
    streams: int,
    tokens: int,
    paced_s: float,
    tcs_count: int,
    model_seed: int,
) -> dict:
    """Decode ``streams`` concurrent streams on a fresh host."""
    model = build_tinylm(seed=model_seed)
    scheduler = SchedulerConfig(
        queue_depth=max(16, streams),
        paced_service_s=paced_s,
        paced_busy=True,
        batch=policy,
    )
    prompts = _prompts(streams)
    refs = [DecoderSession(model).generate(p, tokens) for p in prompts]
    with live_host(model, MODEL_ID, scheduler, tcs_count=tcs_count) as live:
        session = live.session
        # cold start off the clock: model load + key provisioning
        session.stream(prompts[0], 1).result()
        live.env.tracer.clear()
        started = time.perf_counter()
        handles = [session.stream(p, tokens) for p in prompts]
        sequences = [h.result() for h in handles]
        elapsed = time.perf_counter() - started
        verified = sequences == refs
        step_spans = [
            s for s in live.env.tracer.finished_spans()
            if s.name == "ecall:EC_STREAM_STEP"
        ]
        sizes: Dict[str, int] = {}
        for span in step_spans:
            key = str(span.attributes.get("batch_size", 1))
            sizes[key] = sizes.get(key, 0) + 1
        ttfts = [h.ttft_s for h in handles if h.ttft_s is not None]
        total = streams * tokens
        row = {
            "max_batch": policy.max_batch if policy is not None else 1,
            "streams": streams,
            "tokens_per_stream": tokens,
            "total_tokens": total,
            "elapsed_s": elapsed,
            "tokens_per_s": total / elapsed,
            "ttft_mean_s": sum(ttfts) / len(ttfts) if ttfts else 0.0,
            "ttft_max_s": max(ttfts) if ttfts else 0.0,
            "step_ecalls": len(step_spans),
            "step_sizes": sizes,
            "verified": verified,
        }
    return row


def run(
    streams: int = 4,
    tokens: int = 32,
    paced_ms: float = 25.0,
    max_batch: int = 0,
    window_ms: float = 10.0,
    tcs_count: int = 4,
    model_seed: int = 7,
    alpha: float = 0.6,
) -> dict:
    """Continuous batching vs per-request decoding, same host shape.

    Both lanes use the same ``tcs_count`` build and busy pacing floor;
    only ``SchedulerConfig.batch`` differs.  ``max_batch`` 0 sizes the
    group to ``streams``.  Returns the two rows plus ``speedup``
    (grouped over solo aggregate tokens/sec) and the grouped lane's
    ``ttft_max_s`` -- the two numbers ``gates`` checks, beside the
    token-for-token verification.
    """
    max_batch = max_batch or streams
    paced_s = paced_ms / 1e3
    solo = _lane(None, streams, tokens, paced_s, tcs_count, model_seed)
    policy = BatchPolicy(
        batch_window_s=window_ms / 1e3, max_batch=max_batch, alpha=alpha
    )
    grouped = _lane(policy, streams, tokens, paced_s, tcs_count, model_seed)
    speedup = grouped["tokens_per_s"] / solo["tokens_per_s"]
    verified = solo["verified"] and grouped["verified"]
    gates = {
        "throughput_gain": speedup >= SPEEDUP_GATE,
        "ttft_bounded": grouped["ttft_max_s"] <= TTFT_CEILING_S,
        "sequences_verified": verified,
    }
    return {
        "streams": streams,
        "tokens_per_stream": tokens,
        "paced_ms": paced_ms,
        "tcs_count": tcs_count,
        "window_ms": window_ms,
        "solo": solo,
        "grouped": grouped,
        "speedup": speedup,
        "ttft_max_s": grouped["ttft_max_s"],
        "verified": verified,
        "gate": SPEEDUP_GATE,
        "ttft_ceiling_s": TTFT_CEILING_S,
        "gates": gates,
        "pass": all(gates.values()),
    }


def format_report(result: dict) -> str:
    """Render the two lanes plus the speedup/TTFT lines."""
    lines = [
        f"secure streaming inference, {result['streams']} streams x "
        f"{result['tokens_per_stream']} tokens, busy-paced to "
        f"{result['paced_ms']:.0f} ms/step, {result['tcs_count']} TCS",
        f"{'group':>6} {'tok/s':>8} {'elapsed':>9} {'ttft mean':>10} "
        f"{'ttft max':>9} {'steps':>6} {'sizes':>16}",
    ]
    for row in (result["solo"], result["grouped"]):
        sizes = ",".join(
            f"{size}x{count}"
            for size, count in sorted(row["step_sizes"].items())
        ) or "-"
        lines.append(
            f"{row['max_batch']:>6} {row['tokens_per_s']:>8.1f} "
            f"{row['elapsed_s']:>8.2f}s {row['ttft_mean_s'] * 1e3:>7.0f} ms "
            f"{row['ttft_max_s'] * 1e3:>6.0f} ms {row['step_ecalls']:>6} "
            f"{sizes:>16}"
        )
    lines.append(
        f"speedup (continuous batch {result['grouped']['max_batch']} vs "
        f"per-request): {result['speedup']:.2f}x "
        f"(gate >= {result['gate']:.1f}x), grouped TTFT max "
        f"{result['ttft_max_s'] * 1e3:.0f} ms "
        f"(ceiling {result['ttft_ceiling_s'] * 1e3:.0f} ms), sequences "
        f"{'verified' if result['verified'] else 'MISMATCHED'}"
    )
    lines.append(format_gates(result))
    return "\n".join(lines)
