"""Tracer behaviour: nesting, explicit parents, status, metrics bridge."""

import gc
import sys
import threading
import tracemalloc

import pytest

from repro.errors import SeSeMIError
from repro.obs.span import LogicalClock, SimClock, Span, SpanContext
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


# -- the contract chaos runs and SimClock figures depend on ----------------------


def test_nested_spans_read_the_clock_exactly_twice_each():
    clock = LogicalClock()
    tracer = Tracer(clock=clock)
    with tracer.span("request") as root:
        with tracer.span("serve") as serve:
            leaf = tracer.start_span("leaf", parent=serve)
            leaf.end()
    assert clock.ticks == 6
    assert (root.start, serve.start, leaf.start) == (1.0, 2.0, 3.0)
    assert (leaf.end_time, serve.end_time, root.end_time) == (4.0, 5.0, 6.0)


def test_ids_are_assigned_in_open_order():
    tracer = Tracer()
    first = tracer.span("a")  # created first, opened second
    second = tracer.span("b")
    with second:
        with tracer.span("b.child") as child:
            pass
    with first:
        pass
    explicit = tracer.start_span("c")
    assert [(s.name, s.trace_id, s.span_id) for s in tracer.spans] == [
        ("b", "trace-1", "span-1"),
        ("b.child", "trace-1", "span-2"),
        ("a", "trace-2", "span-3"),
        ("c", "trace-3", "span-4"),
    ]
    assert child.parent_id == "span-1" and explicit.parent_id is None
    assert child.context == SpanContext(trace_id="trace-1", span_id="span-2")


def test_span_reads_no_clock_before_enter():
    clock = LogicalClock()
    tracer = Tracer(clock=clock)
    pending = tracer.span("request", model_id="m")
    assert clock.ticks == 0 and tracer.spans == []
    with pending as span:
        assert clock.ticks == 1 and span.start == 1.0
    assert span is pending and clock.ticks == 2


def test_a_span_is_a_slotted_record():
    tracer = Tracer()
    with tracer.span("request") as span:
        pass
    assert not hasattr(span, "__dict__")
    assert span.events == ()  # no event list until the first add_event
    span.add_event("retry", attempt=1)
    assert [event["name"] for event in span.events] == ["retry"]


def test_from_mapping_keeps_the_context_and_events_keywords():
    span = Span(
        name="request",
        context=SpanContext(trace_id="trace-7", span_id="span-9"),
        parent_id=None,
        start=1.0,
        end_time=2.0,
        events=[{"name": "retry", "at": 1.5, "attributes": {}}],
    )
    rebuilt = Span.from_mapping(span.to_mapping())
    assert rebuilt.context == span.context
    assert rebuilt.to_mapping() == span.to_mapping()


def test_a_retained_span_costs_at_most_500_bytes():
    tracer = Tracer()
    for _ in range(10):  # one-off allocations of a fresh tracer are not per-span
        with tracer.span("request", model_id="m"):
            pass
    tracer.clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(1000):
            with tracer.span("request", model_id="m"):
                with tracer.span("child", a=1, b=2, c=3):
                    pass
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    retained = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert len(tracer.spans) == 2000
    assert retained / 2000 <= 500


def test_eight_threads_keep_their_own_ambient_stacks():
    tracer = Tracer()
    threads_n, rounds = 8, 50
    gate = threading.Barrier(threads_n, timeout=30)
    stacks, errors = {}, []

    def worker(index):
        try:
            gate.wait()
            for round_ in range(rounds):
                with tracer.span("root", thread=index, round=round_) as root:
                    with tracer.span("child", thread=index):
                        adopted = []

                        def adopt():  # another thread parents under our root
                            with tracer.attach(root):
                                with tracer.span("attached", thread=index) as s:
                                    adopted.append(s)
                            stacks[threading.get_ident()] = tracer.current_span()

                        helper = threading.Thread(target=adopt)
                        helper.start()
                        with tracer.span("grandchild", thread=index):
                            pass
                        helper.join(timeout=30)
                        assert not helper.is_alive() and len(adopted) == 1
            stacks[index] = tracer.current_span()
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(i,)) for i in range(threads_n)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert errors == []
    assert tracer.current_span() is None
    assert set(stacks.values()) == {None}  # every stack, workers' and helpers', ends empty
    spans = tracer.spans
    assert len(spans) == threads_n * rounds * 4
    assert all(span.ended for span in spans)
    by_id = {span.span_id: span for span in spans}
    expected_parent = {"child": "root", "grandchild": "child", "attached": "root"}
    for span in spans:
        if span.name == "root":
            assert span.parent_id is None
            continue
        parent = by_id[span.parent_id]
        assert parent.name == expected_parent[span.name]
        assert parent.attributes["thread"] == span.attributes["thread"]
        assert parent.trace_id == span.trace_id
