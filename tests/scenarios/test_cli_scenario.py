"""The ``repro scenario`` command group, end to end through main()."""

import json

import pytest

from repro.cli import main
from repro.scenarios.registry import get_scenario

SMOKE = "scenario-smoke"


def _run_smoke(tmp_path, *extra):
    return main(["scenario", "run", SMOKE, "--store", str(tmp_path), *extra])


def test_scenario_run_persists_manifest(tmp_path, capsys):
    assert _run_smoke(tmp_path) == 0
    out = capsys.readouterr().out
    run_id = get_scenario(SMOKE).run_id
    assert run_id in out
    manifest = json.loads((tmp_path / run_id / "manifest.json").read_text())
    assert manifest["scenario"] == SMOKE
    assert manifest["metrics"]["summary"]


def test_scenario_run_twice_is_byte_identical(tmp_path, capsys):
    run_id = get_scenario(SMOKE).run_id
    assert _run_smoke(tmp_path) == 0
    first = (tmp_path / run_id / "manifest.json").read_bytes()
    assert _run_smoke(tmp_path) == 0
    assert (tmp_path / run_id / "manifest.json").read_bytes() == first
    capsys.readouterr()


def test_scenario_run_json_prints_manifest(tmp_path, capsys):
    assert _run_smoke(tmp_path, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["run_id"] == get_scenario(SMOKE).run_id


def test_scenario_run_spec_file_seed_and_set(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(get_scenario(SMOKE).to_json())
    code = main([
        "scenario", "run", str(spec_path), "--store", str(tmp_path / "s"),
        "--seed", "7", "--set", "workload.duration_s=20",
    ])
    assert code == 0
    run_id = (tmp_path / "s").iterdir().__next__().name
    manifest = json.loads(
        (tmp_path / "s" / run_id / "manifest.json").read_text()
    )
    assert manifest["seed"] == 7
    assert manifest["spec"]["workload"]["duration_s"] == 20.0
    capsys.readouterr()


def test_scenario_run_no_save(tmp_path, capsys):
    store = tmp_path / "never"
    assert _run_smoke(store, "--no-save") == 0
    assert not store.exists()
    assert "not saved" in capsys.readouterr().out


def test_scenario_run_errors_return_2(tmp_path, capsys):
    assert main(["scenario", "run", "fig99", "--store", str(tmp_path)]) == 2
    assert "no scenario named" in capsys.readouterr().err
    assert _run_smoke(tmp_path, "--set", "nonsense") == 2
    assert "PATH=VALUE" in capsys.readouterr().err
    assert _run_smoke(tmp_path, "--set", "workload.teleport=1") == 2
    assert "unknown spec path" in capsys.readouterr().err


def test_scenario_list(tmp_path, capsys):
    assert main(["scenario", "list", "--store", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert SMOKE in out and "no stored runs" in out
    assert _run_smoke(tmp_path) == 0
    capsys.readouterr()
    assert main(["scenario", "list", "--store", str(tmp_path)]) == 0
    assert get_scenario(SMOKE).run_id in capsys.readouterr().out


def test_scenario_compare(tmp_path, capsys):
    assert _run_smoke(tmp_path) == 0
    assert _run_smoke(tmp_path, "--seed", "7") == 0
    capsys.readouterr()
    a, b = sorted(
        p.name for p in tmp_path.iterdir() if (p / "manifest.json").is_file()
    )
    assert main(["scenario", "compare", a, b, "--store", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "spec differences:" in out and "seed" in out
    assert main([
        "scenario", "compare", a, b, "--store", str(tmp_path), "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["run_a"] == a and payload["run_b"] == b
    assert ["seed", 2025, 7] in payload["spec"]
    assert main([
        "scenario", "compare", a, "missing-s0-x", "--store", str(tmp_path),
    ]) == 2


def test_scenario_report(tmp_path, capsys):
    assert _run_smoke(tmp_path) == 0
    out_md = tmp_path / "runs.md"
    assert main([
        "scenario", "report", "--store", str(tmp_path), "--out", str(out_md),
    ]) == 0
    text = out_md.read_text()
    assert text.startswith("# Scenario runs")
    assert get_scenario(SMOKE).run_id in text
    capsys.readouterr()
    assert main(["scenario", "report", "--store", str(tmp_path)]) == 0
    assert "# Scenario runs" in capsys.readouterr().out


def test_scenario_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["scenario"])
