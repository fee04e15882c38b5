"""Metrics: latency statistics, timelines, and the GB-second cost integral."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.serverless.action import InvocationResult

GB = 1024 ** 3


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics over a set of invocation results."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @classmethod
    def of(cls, results: Iterable[InvocationResult]) -> "LatencyStats":
        latencies = np.array([r.latency for r in results], dtype=float)
        if latencies.size == 0:
            return cls(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, max=0.0)
        return cls(
            count=int(latencies.size),
            mean=float(latencies.mean()),
            p50=float(np.percentile(latencies, 50)),
            p95=float(np.percentile(latencies, 95)),
            p99=float(np.percentile(latencies, 99)),
            max=float(latencies.max()),
        )


def throughput_rps(results: Sequence[InvocationResult]) -> float:
    """Completed requests per second over the span of the results."""
    if not results:
        return 0.0
    start = min(r.submitted_at for r in results)
    end = max(r.finished_at for r in results)
    span = end - start
    if span <= 0:
        return float(len(results))
    return len(results) / span


def latency_timeline(
    results: Sequence[InvocationResult], bucket_s: float = 10.0
) -> List[Tuple[float, float]]:
    """``(bucket_start, mean_latency)`` series for Figure-13-style plots."""
    if not results:
        return []
    buckets: Dict[int, List[float]] = {}
    for r in results:
        buckets.setdefault(int(r.submitted_at // bucket_s), []).append(r.latency)
    return [
        (index * bucket_s, float(np.mean(values)))
        for index, values in sorted(buckets.items())
    ]


def gb_seconds(
    memory_timeline: Sequence[Tuple[float, int]], until: float
) -> float:
    """Integrate reserved memory over time (the paper's cost metric).

    ``memory_timeline`` is the controller's ``(time, reserved_bytes)``
    step function; the integral runs from time zero to ``until``.
    """
    if until <= 0:
        return 0.0
    total = 0.0
    for (t0, level), (t1, _) in zip(memory_timeline, memory_timeline[1:]):
        if t0 >= until:
            break
        span = min(t1, until) - t0
        if span > 0:
            total += level * span
    if memory_timeline:
        last_t, last_level = memory_timeline[-1]
        if last_t < until:
            total += last_level * (until - last_t)
    return total / GB
