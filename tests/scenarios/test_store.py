"""RunStore: deterministic manifests, round-trips, error paths."""

import json

import pytest

from repro.errors import ConfigError
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import RunStore, current_git_sha

SPEC = ScenarioSpec(name="store-test", executor="sim", seed=3)
METRICS = {
    "summary": {"mean_s": 0.5},
    "systems": {"SeSeMI": {"count": 10, "mean_s": 0.5}},
}


def test_save_is_deterministic_and_idempotent(tmp_path):
    store = RunStore(tmp_path / "runs")
    first = store.save(SPEC, METRICS, git_sha="abc123")
    text_a = store.manifest_path(first.run_id).read_text()
    second = store.save(SPEC, METRICS, git_sha="abc123")
    text_b = store.manifest_path(second.run_id).read_text()
    assert first.run_id == second.run_id == SPEC.run_id
    assert text_a == text_b  # the scenario-smoke CI property
    assert text_a.endswith("\n")
    # canonical formatting: the text is its own re-serialisation
    payload = json.loads(text_a)
    assert text_a == json.dumps(
        payload, sort_keys=True, indent=2, ensure_ascii=True
    ) + "\n"


def test_manifest_has_no_timestamps(tmp_path):
    store = RunStore(tmp_path)
    record = store.save(SPEC, METRICS)
    payload = json.loads(store.manifest_path(record.run_id).read_text())
    assert set(payload) == {
        "manifest_version", "run_id", "scenario", "seed", "spec_hash",
        "git_sha", "has_trace", "spec", "metrics",
    }


def test_load_round_trips_spec_and_metrics(tmp_path):
    store = RunStore(tmp_path)
    saved = store.save(SPEC, METRICS, git_sha="abc123")
    loaded = store.load(saved.run_id)
    assert loaded.spec == SPEC
    assert loaded.metrics == METRICS
    assert loaded.git_sha == "abc123"
    assert loaded.spec_hash == SPEC.spec_hash()
    assert not loaded.has_trace


def test_numpy_scalars_serialise_as_numbers(tmp_path):
    np = pytest.importorskip("numpy")
    store = RunStore(tmp_path)
    record = store.save(
        SPEC, {"count": np.int64(7), "mean_s": np.float64(0.25)}
    )
    loaded = store.load(record.run_id)
    assert loaded.metrics == {"count": 7, "mean_s": 0.25}


def test_trace_persisted_next_to_manifest(tmp_path):
    store = RunStore(tmp_path)
    record = store.save(SPEC, METRICS, trace_json={"traceEvents": []})
    assert record.has_trace
    assert json.loads(store.trace_path(record.run_id).read_text()) == {
        "traceEvents": []
    }


def test_list_runs_sorted(tmp_path):
    store = RunStore(tmp_path)
    assert store.list_runs() == []
    ids = [
        store.save(ScenarioSpec(name=name, executor="sim"), {}).run_id
        for name in ("zeta", "alpha")
    ]
    assert store.list_runs() == sorted(ids)


def test_load_unknown_run_and_bad_version(tmp_path):
    store = RunStore(tmp_path)
    with pytest.raises(ConfigError, match="no run"):
        store.load("missing-s0-0000000000")
    record = store.save(SPEC, METRICS)
    path = store.manifest_path(record.run_id)
    payload = json.loads(path.read_text())
    # 1 is what stores written before PolicySpec lost its four
    # live-benchmark fields carry: their run ids no longer match
    for version in (99, 1):
        payload["manifest_version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="manifest version"):
            store.load(record.run_id)


def test_current_git_sha_in_this_repo():
    sha = current_git_sha()
    assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))
