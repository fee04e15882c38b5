"""The `python -m repro` command-line interface."""

import json
import types

import pytest

from repro import cli
from repro.cli import EXPERIMENTS, main
from repro.experiments import fig8


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_run_single_experiment(capsys):
    assert main(["run", "table1"]) == 0
    out = capsys.readouterr().out
    assert "MBNET" in out and "finished in" in out


def test_run_multiple_experiments(capsys):
    assert main(["run", "table1", "fig10"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out and "memory saving" in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err


def test_report_command(tmp_path, capsys):
    # Only check wiring, not the full (slow) report: monkeypatching the
    # builder would hide integration bugs, so use the real one but make
    # sure it lands where asked.
    target = tmp_path / "EXP.md"
    assert main(["report", str(target)]) == 0
    content = target.read_text()
    assert content.startswith("# EXPERIMENTS")
    assert "Figure 12" in content


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("result, code", [
    ({"speedup": 0.9, "gates": {"fast": False}, "pass": False}, 1),
    ({"speedup": 2.0, "gates": {"fast": True}, "pass": True}, 0),
    ({"speedup": 2.0}, 0),  # ungated: nothing to fail
])
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_run_exit_code_is_the_gate(monkeypatch, capsys, result, code, flags):
    stub = types.SimpleNamespace(
        run=lambda scale: dict(result, scale=scale), format_report=str
    )
    monkeypatch.setitem(cli.EXPERIMENTS, "stub", ("a stub", stub, {"scale": 3}))
    assert main(["run", "stub", *flags]) == code
    out = capsys.readouterr().out
    if flags:  # the bare result, fixed kwargs applied, keys sorted
        assert json.loads(out) == dict(result, scale=3)
        assert out == json.dumps(dict(result, scale=3), indent=2,
                                 sort_keys=True) + "\n"


def test_run_json_takes_one_name(capsys):
    assert main(["run", "table1", "fig10", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "one experiment" in captured.err


@pytest.mark.parametrize("argv", [
    [name] for name in (
        "chaos", "concurrency", "batching", "gateway", "service",
        "warmpool", "hotpath", "streaming",
    )
] + [["run", "table1", "--seed", "7"], ["scenario", "list"]])
def test_deleted_subcommands_and_flags_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as refused:
        main(argv)
    assert refused.value.code == 2
    capsys.readouterr()


def test_the_subcommands_are_list_run_trace_report_serve(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "{list,run,trace,report,serve}" in capsys.readouterr().out


def test_every_trace_source_resolves(monkeypatch, tmp_path, capsys):
    assert sorted(cli.TRACES) == ["chaos", "fig17", "fig8", "service", "session"]
    spans, _ = fig8.traced_cold_request("MBNET", "tvm")
    for name, (description, _collect) in list(cli.TRACES.items()):
        monkeypatch.setitem(cli.TRACES, name, (description, lambda: spans))
        out = tmp_path / f"{name}.json"
        assert main(["trace", name, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["traceEvents"]
    assert main(["trace", "fig99"]) == 2
    capsys.readouterr()


#: every measurement (each one's result is a pure function of its
#: arguments) -> the reduced knobs this file runs it at
DETERMINISTIC = {
    "table1": {}, "fig8": {}, "fig9": {}, "fig10": {}, "fig11": {}, "fig12": {},
    "fig13": {"duration_s": 30.0}, "table2": {}, "table34": {"duration_s": 120.0},
    "fig15": {}, "fig17": {}, "chaos": {"requests": 8}, "warmpool": {"duration_s": 60.0},
}


def test_every_measurement_is_deterministic_or_live():
    """No wall-clock harness is left: every ``repro run`` name is here."""
    assert set(DETERMINISTIC) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", DETERMINISTIC)
def test_deterministic_results_round_trip_through_strict_json(name, monkeypatch, capsys):
    description, module, kwargs = EXPERIMENTS[name]
    monkeypatch.setitem(
        cli.EXPERIMENTS, name, (description, module, {**kwargs, **DETERMINISTIC[name]})
    )
    main(["run", name, "--json"])  # the exit code is the gate's business
    out = capsys.readouterr().out
    assert "LatencyStats(" not in out
    parsed = json.loads(out)
    # nothing was stringified on the way out: the parsed document dumps back
    # to the same bytes with no ``default=`` hook at all
    assert json.dumps(parsed, indent=2, sort_keys=True, allow_nan=False) + "\n" == out


def test_json_fallback_takes_numpy_scalars_and_nothing_else():
    import numpy as np

    assert json.dumps({"x": np.float32(0.5)}, default=cli._json_default) == '{"x": 0.5}'
    for leaf in (object(), (1, 2).__iter__(), {1, 2}):
        with pytest.raises(TypeError):
            json.dumps({"x": leaf}, default=cli._json_default)
