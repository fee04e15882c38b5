"""Exporters: lossless JSON round trip and chrome://tracing output."""

import json

from repro.obs.export import (
    spans_from_json,
    spans_to_json,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.tracer import Tracer


def _sample_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("request", model_id="m", flavor="cold"):
        with tracer.span("serve", container_id="c-1"):
            with tracer.span("stage:model_inference", stage="model_inference"):
                pass
    return tracer


def test_json_round_trip_preserves_everything():
    tracer = _sample_tracer()
    originals = tracer.finished_spans()
    rebuilt = spans_from_json(spans_to_json(originals, indent=2))
    assert len(rebuilt) == len(originals)
    for before, after in zip(originals, rebuilt):
        assert after.name == before.name
        assert after.trace_id == before.trace_id
        assert after.span_id == before.span_id
        assert after.parent_id == before.parent_id
        assert after.start == before.start
        assert after.end_time == before.end_time
        assert after.attributes == before.attributes
        assert after.status == before.status


def test_rebuilt_spans_are_detached_but_analyzable():
    tracer = _sample_tracer()
    rebuilt = spans_from_json(spans_to_json(tracer.finished_spans()))
    from repro.obs import analysis

    root = analysis.find_root(rebuilt, name="request")
    assert [s.name for s in analysis.critical_path(rebuilt, root)] == [
        "request", "serve", "stage:model_inference",
    ]


def test_chrome_trace_shape():
    tracer = _sample_tracer()
    doc = to_chrome_trace(tracer.finished_spans(), service="sesemi-test")
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    metadata = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in metadata} == {"process_name", "thread_name"}
    assert len(complete) == 3
    for event in complete:
        assert isinstance(event["ts"], float)
        assert event["dur"] >= 0.0
        assert event["pid"] == 1 and event["tid"] >= 1
        assert "span_id" in event["args"]
    stage_events = [e for e in complete if e["cat"] == "model_inference"]
    assert len(stage_events) == 1


def test_chrome_trace_skips_open_spans():
    tracer = Tracer()
    tracer.start_span("request")  # never ended
    doc = to_chrome_trace(tracer.spans)
    assert [e for e in doc["traceEvents"] if e["ph"] == "X"] == []


def test_written_file_is_loadable_json(tmp_path):
    tracer = _sample_tracer()
    path = tmp_path / "trace.json"
    write_chrome_trace(tracer.finished_spans(), str(path))
    loaded = json.loads(path.read_text())
    assert isinstance(loaded["traceEvents"], list)
    assert loaded["displayTimeUnit"] == "ms"
    # chrome://tracing requirements: every event carries ph/pid/tid/name,
    # and complete events carry numeric ts + dur.
    for event in loaded["traceEvents"]:
        assert {"name", "ph", "pid", "tid"} <= set(event)
        if event["ph"] == "X":
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
