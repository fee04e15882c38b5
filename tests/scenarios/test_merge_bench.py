"""scripts/merge_bench.py: the CI benchmark-trajectory consolidation."""

import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
SCRIPT = REPO / "scripts" / "merge_bench.py"


def _load():
    import importlib.util

    spec = importlib.util.spec_from_file_location("merge_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _artifact_tree(tmp_path):
    """The shape actions/download-artifact leaves: one dir per artifact."""
    root = tmp_path / "artifacts"
    (root / "BENCH_service").mkdir(parents=True)
    (root / "BENCH_service" / "BENCH_service.json").write_text(
        json.dumps({"pass": True, "shed_count": 3})
    )
    (root / "BENCH_gateway").mkdir()
    (root / "BENCH_gateway" / "BENCH_gateway.json").write_text(
        json.dumps({"fleets": [1, 3]})
    )
    (root / "service-trace").mkdir()
    (root / "service-trace" / "service-trace.json").write_text("{}")
    return root


def test_merge_keys_and_sources(tmp_path):
    mb = _load()
    root = _artifact_tree(tmp_path)
    paths = mb.find_bench_files(root)
    assert [p.name for p in paths] == [
        "BENCH_gateway.json", "BENCH_service.json",
    ]  # the trace is skipped
    merged = mb.merge_paths(paths, root)
    assert merged["trajectory_version"] == 1
    assert set(merged["benchmarks"]) == {"service", "gateway"}
    assert merged["benchmarks"]["service"]["shed_count"] == 3
    assert merged["sources"]["gateway"] == "BENCH_gateway/BENCH_gateway.json"


def test_main_writes_deterministic_output(tmp_path, capsys):
    mb = _load()
    root = _artifact_tree(tmp_path)
    out = tmp_path / "BENCH_trajectory.json"
    assert mb.main(["--root", str(root), "--out", str(out)]) == 0
    first = out.read_bytes()
    assert mb.main(["--root", str(root), "--out", str(out)]) == 0
    assert out.read_bytes() == first
    payload = json.loads(first)
    assert set(payload["benchmarks"]) == {"service", "gateway"}
    capsys.readouterr()


def test_main_errors(tmp_path, capsys):
    mb = _load()
    assert mb.main(["--root", str(tmp_path / "missing")]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert mb.main(["--root", str(empty)]) == 2
    capsys.readouterr()


def test_duplicate_keys_rejected(tmp_path):
    mb = _load()
    root = tmp_path / "artifacts"
    (root / "a").mkdir(parents=True)
    (root / "b").mkdir()
    (root / "a" / "BENCH_service.json").write_text("{}")
    (root / "b" / "service.json").write_text("{}")
    with pytest.raises(SystemExit, match="duplicate benchmark key"):
        mb.merge_paths(mb.find_bench_files(root), root)


def test_invalid_json_rejected(tmp_path):
    mb = _load()
    root = tmp_path / "artifacts"
    root.mkdir()
    (root / "BENCH_broken.json").write_text("{nope")
    with pytest.raises(SystemExit, match="not valid JSON"):
        mb.merge_paths(mb.find_bench_files(root), root)
