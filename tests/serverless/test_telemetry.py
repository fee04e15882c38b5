"""Telemetry metrics and their controller integration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.serverless.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
)


def test_counter_monotonic():
    counter = Counter("c")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ConfigError):
        counter.inc(-1)


def test_gauge_moves_both_ways():
    gauge = Gauge("g")
    gauge.set(5)
    gauge.add(-2)
    assert gauge.value == 3


def test_histogram_buckets_and_mean():
    histogram = Histogram("h", buckets=(1.0, 5.0))
    for value in (0.5, 0.7, 3.0, 100.0):
        histogram.observe(value)
    assert histogram.quantile(0.5) == 1.0  # two of four at or under 1.0
    assert histogram.quantile(0.75) == 5.0
    assert histogram.quantile(1.0) == float("inf")  # one past the last bound
    assert histogram.count == 4
    assert histogram.mean == pytest.approx((0.5 + 0.7 + 3.0 + 100.0) / 4)


def test_histogram_quantile_estimate():
    histogram = Histogram("h", buckets=(1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 1.6, 3.0):
        histogram.observe(value)
    assert histogram.quantile(0.25) == 1.0
    assert histogram.quantile(0.75) == 2.0
    assert histogram.quantile(1.0) == 4.0
    with pytest.raises(ConfigError):
        histogram.quantile(1.5)


def test_histogram_empty_quantile():
    assert Histogram("h").quantile(0.5) == 0.0


def test_histogram_needs_buckets():
    with pytest.raises(ConfigError):
        Histogram("h", buckets=())


def test_time_series_integral():
    series = TimeSeries("s")
    series.record(0.0, 2.0)
    series.record(10.0, 5.0)
    assert series.integral(until=20.0) == pytest.approx(2 * 10 + 5 * 10)
    assert series.peak == 5.0
    assert series.last == 5.0


def test_time_series_rejects_time_travel():
    series = TimeSeries("s")
    series.record(5.0, 1.0)
    with pytest.raises(ConfigError):
        series.record(4.0, 1.0)


def test_registry_create_or_get():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("b") is registry.gauge("b")
    assert registry.histogram("c") is registry.histogram("c")
    assert registry.time_series("d") is registry.time_series("d")


def test_registry_snapshot():
    registry = MetricsRegistry()
    registry.counter("reqs").inc(3)
    registry.gauge("load").set(0.5)
    registry.histogram("lat").observe(2.0)
    registry.time_series("mem").record(0.0, 7.0)
    snap = registry.snapshot()
    assert snap["reqs"] == 3
    assert snap["load"] == 0.5
    assert snap["lat.mean"] == 2.0
    assert snap["mem.last"] == 7.0


def test_controller_populates_metrics():
    from repro.serverless.action import ActionSpec, Request, round_memory_budget
    from repro.serverless.container import ActionRuntime
    from repro.serverless.platform import ServerlessPlatform
    from repro.sim.core import Simulation

    class Quick(ActionRuntime):
        def startup(self, ctx):
            yield ctx.sim.timeout(0.1)

        def handle(self, ctx, request):
            yield ctx.sim.timeout(0.2)
            return None, "hot", {}

    registry = MetricsRegistry()
    sim = Simulation()
    platform = ServerlessPlatform(sim, num_nodes=1, metrics=registry)
    spec = ActionSpec(
        name="f", image="i", memory_budget=round_memory_budget(1), concurrency=1
    )
    platform.deploy(spec, Quick)

    def driver(sim):
        done = platform.invoke("f", Request(model_id="m", user_id="u"))
        yield done
        done2 = platform.invoke("f", Request(model_id="m", user_id="u"))
        yield done2

    sim.process(driver(sim))
    sim.run()
    snap = registry.snapshot()
    assert snap["requests.completed"] == 2
    assert snap["containers.cold_starts"] == 1
    assert snap["invocations.cold"] == 1
    assert snap["invocations.hot"] == 1
    assert registry.histogram("latency.seconds").count == 2
    assert registry.time_series("containers.active").peak == 1


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=50))
def test_histogram_conservation_property(values):
    histogram = Histogram("h")
    for value in values:
        histogram.observe(value)
    assert histogram.count == len(values)
    assert histogram.quantile(1.0) >= max(values)  # every value lies in a bucket
    assert histogram.sum == pytest.approx(sum(values))
