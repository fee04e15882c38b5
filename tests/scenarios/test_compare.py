"""Compare and report rendering over stored runs."""

from repro.scenarios.compare import (
    flatten,
    format_compare,
    format_store_report,
    metric_diff,
    spec_diff,
)
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import RunRecord


def _record(name="cmp", seed=1, metrics=None, **spec_kwargs) -> RunRecord:
    spec = ScenarioSpec(name=name, executor="sim", seed=seed, **spec_kwargs)
    return RunRecord(
        run_id=spec.run_id,
        spec=spec,
        seed=seed,
        spec_hash=spec.spec_hash(),
        metrics=metrics or {},
    )


def test_flatten_nested_paths():
    flat = flatten({"a": {"b": 1}, "list": [10, {"x": 2}], "s": "v"})
    assert flat == {"a.b": 1, "list[0]": 10, "list[1].x": 2, "s": "v"}


def test_spec_diff_reports_only_changes():
    a = _record(seed=1)
    b = _record(seed=2)
    rows = spec_diff(a, b)
    assert rows == [("seed", 1, 2)]
    assert spec_diff(a, a) == []


def test_metric_diff_deltas_and_one_sided_keys():
    a = _record(metrics={"mean_s": 2.0, "count": 10, "only_here": 1,
                         "label": "x"})
    b = _record(seed=2, metrics={"mean_s": 1.0, "count": 10, "label": "y"})
    diff = metric_diff(a, b)
    by_key = {row[0]: row for row in diff["common"]}
    assert by_key["mean_s"] == ("mean_s", 2.0, 1.0, -1.0, 0.5)
    assert by_key["count"][3] == 0
    assert by_key["label"] == ("label", "x", "y", None, None)
    assert diff["only_a"] == ["only_here"]
    assert diff["only_b"] == []


def test_metric_diff_orders_headline_metrics_first():
    a = _record(metrics={"zzz": 1, "summary": {"p95_s": 1.0}, "count": 2})
    b = _record(seed=2, metrics={"zzz": 1, "summary": {"p95_s": 2.0},
                                 "count": 2})
    keys = [row[0] for row in metric_diff(a, b)["common"]]
    assert keys[0] == "summary.p95_s"
    assert keys[-1] == "zzz"


def test_metric_diff_zero_baseline_has_no_ratio():
    a = _record(metrics={"cold": 0})
    b = _record(seed=2, metrics={"cold": 3})
    (key, va, vb, delta, ratio), = metric_diff(a, b)["common"]
    assert (key, delta, ratio) == ("cold", 3, None)


def test_format_compare_renders_both_sections():
    a = _record(seed=1, metrics={"mean_s": 2.0, "count": 5})
    b = _record(seed=2, metrics={"mean_s": 1.0, "count": 5})
    text = format_compare(a, b)
    assert a.run_id in text and b.run_id in text
    assert "spec differences:" in text
    assert "seed" in text
    assert "0.500x" in text
    # changed_only drops the unchanged count row
    filtered = format_compare(a, b, changed_only=True)
    assert "mean_s" in filtered
    assert "count" not in filtered


def test_format_compare_identical_runs():
    a = _record(metrics={"count": 5})
    text = format_compare(a, a)
    assert "spec differences: none (same spec hash)" in text


def test_format_store_report_markdown():
    records = [
        _record(name="one", metrics={"summary": {"mean_s": 0.5}}),
        _record(name="two", metrics={"count": 3}),  # no summary block
    ]
    text = format_store_report(records)
    assert text.startswith("# Scenario runs")
    assert "| one-s1-" in text and "| two-s1-" in text
    assert "## " + records[0].run_id in text
    assert "## " + records[1].run_id not in text
    assert text.endswith("\n")
