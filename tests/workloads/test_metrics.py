"""Metrics: latency stats, timelines, GB-second integral."""

import pytest

from repro.serverless.action import InvocationResult, Request
from repro.workloads.metrics import (
    GB,
    LatencyStats,
    gb_seconds,
    latency_timeline,
    throughput_rps,
)


def result(submitted, finished, kind="hot", stages=None):
    return InvocationResult(
        request=Request(model_id="m", user_id="u"),
        response=None,
        kind=kind,
        container_id="c",
        node_id="n",
        submitted_at=submitted,
        started_at=submitted,
        finished_at=finished,
        stage_seconds=stages or {},
    )


def test_latency_stats_basic():
    results = [result(0, 1), result(0, 2), result(0, 3)]
    stats = LatencyStats.of(results)
    assert stats.count == 3
    assert stats.mean == pytest.approx(2.0)
    assert stats.p50 == pytest.approx(2.0)
    assert stats.max == pytest.approx(3.0)


def test_latency_stats_empty():
    stats = LatencyStats.of([])
    assert stats.count == 0
    assert stats.mean == 0.0


def test_throughput():
    results = [result(i, i + 0.5) for i in range(10)]
    assert throughput_rps(results) == pytest.approx(10 / 9.5)
    assert throughput_rps([]) == 0.0


def test_latency_timeline_buckets():
    results = [result(5, 6), result(15, 17), result(16, 18)]
    timeline = latency_timeline(results, bucket_s=10.0)
    assert timeline == [(0.0, 1.0), (10.0, 2.0)]
    assert latency_timeline([], bucket_s=10.0) == []


def test_gb_seconds_step_function():
    # 1 GB for 10s, then 3 GB for 5s, then 0.
    timeline = [(0.0, 0), (0.0, GB), (10.0, 3 * GB), (15.0, 0)]
    assert gb_seconds(timeline, until=20.0) == pytest.approx(1 * 10 + 3 * 5)


def test_gb_seconds_clipped_at_horizon():
    timeline = [(0.0, GB)]
    assert gb_seconds(timeline, until=7.0) == pytest.approx(7.0)
    assert gb_seconds(timeline, until=0.0) == 0.0


def test_gb_seconds_ignores_changes_after_horizon():
    timeline = [(0.0, GB), (5.0, 100 * GB)]
    assert gb_seconds(timeline, until=5.0) == pytest.approx(5.0)
