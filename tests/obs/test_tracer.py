"""Tracer behaviour: nesting, explicit parents, status, metrics bridge."""

import pytest

from repro.errors import SeSeMIError
from repro.obs.span import SimClock, SpanContext
from repro.obs.tracer import Tracer, maybe_span
from repro.serverless.telemetry import MetricsRegistry
from repro.sim.core import Simulation


def test_ambient_nesting_builds_one_trace():
    tracer = Tracer()
    with tracer.span("request") as root:
        with tracer.span("serve") as serve:
            with tracer.span("stage:model_inference", stage="model_inference") as leaf:
                assert tracer.current_span() is leaf
    assert tracer.current_span() is None
    assert serve.parent_id == root.span_id
    assert leaf.parent_id == serve.span_id
    assert root.trace_id == serve.trace_id == leaf.trace_id
    assert [s.name for s in tracer.finished_spans()] == [
        "request", "serve", "stage:model_inference",
    ]


def test_sibling_roots_get_distinct_traces():
    tracer = Tracer()
    with tracer.span("request"):
        pass
    with tracer.span("request"):
        pass
    assert len(tracer.trace_ids()) == 2
    assert len(tracer.roots()) == 2


def test_explicit_parent_propagates_context():
    tracer = Tracer()
    root = tracer.start_span("request")
    child = tracer.start_span("serve", parent=root)
    child.end()
    root.end()
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id


def test_span_context_wire_round_trip():
    context = SpanContext(trace_id="trace-7", span_id="span-9")
    assert SpanContext.from_wire(context.to_wire()) == context


def test_exception_marks_span_error_and_unwinds_stack():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("request"):
            with tracer.span("serve"):
                raise ValueError("boom")
    assert tracer.current_span() is None
    by_name = {s.name: s for s in tracer.finished_spans()}
    assert by_name["serve"].status == "error"
    assert by_name["request"].status == "error"


def test_double_end_raises():
    tracer = Tracer()
    span = tracer.start_span("request")
    span.end()
    with pytest.raises(SeSeMIError):
        span.end()


def test_attributes_and_set_attribute():
    tracer = Tracer()
    span = tracer.start_span("request", model_id="m")
    span.set_attribute("flavor", "cold")
    span.set_attributes(enclave_id="abc", epc_pressure=0.5)
    span.end()
    assert span.attributes == {
        "model_id": "m", "flavor": "cold", "enclave_id": "abc", "epc_pressure": 0.5,
    }


def test_sim_clock_spans_use_virtual_time():
    sim = Simulation()
    tracer = Tracer(clock=SimClock(sim))

    def process():
        span = tracer.start_span("request")
        yield sim.timeout(2.5)
        span.end()

    sim.process(process())
    sim.run()
    (span,) = tracer.finished_spans()
    assert span.start == 0.0
    assert span.duration == pytest.approx(2.5)


def test_finished_spans_feed_metrics_histograms():
    metrics = MetricsRegistry()
    tracer = Tracer(metrics=metrics)
    for _ in range(3):
        with tracer.span("serve"):
            pass
    snapshot = metrics.snapshot()
    assert snapshot["span.serve.seconds.count"] == 3
    assert "span.serve.seconds.p95" in snapshot


def test_maybe_span_without_tracer_is_noop():
    with maybe_span(None, "request") as span:
        assert span is None


def test_clear_drops_spans():
    tracer = Tracer()
    with tracer.span("request"):
        pass
    tracer.clear()
    assert tracer.finished_spans() == []
