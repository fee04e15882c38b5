"""Reduced-count pass over the whole benchmark.

    python -m pytest bench/selftest.py

Outside tier-1's ``testpaths``.  One short run of ``bench/run.py
--trace`` (every workload, end-to-end and traced) must emit every
workload and metric named in ``BENCHMARK.json`` exactly once, each with
its unit and a finite value; traced spans must nest inside resolvable
parents; and no benchmark file may mention the pacing knob.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Results and out directory of one reduced run of every workload."""
    out = tmp_path_factory.mktemp("bench")
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seconds", "2", "--trace", "--out", str(out)],
        stdout=subprocess.PIPE, text=True,
    )
    assert done.returncode == 0, done.stdout
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    return json.loads((out / "results.json").read_text()), out, done.stdout


def test_names_are_well_formed_and_unique():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_metric_emitted_once_with_unit_and_finite_value(run, kind):
    results, _, stdout = run
    assert list(results["workloads"]) == WORKLOADS
    assert set(results["fingerprint"]) == {"nproc", "python", "numpy", "platform"}
    for workload in WORKLOADS:
        row = results["workloads"][workload][kind]
        assert row["failed"] == 0 and row["attempted"] >= 1
        assert list(row["metrics"]) == [m["name"] for m in SPEC[kind]]
        for metric in SPEC[kind]:
            got = row["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert math.isfinite(got["value"]) and got["samples"] >= 1
            # printed once per row, by name, beside its unit
            printed = re.findall(rf"^\s+{re.escape(metric['name'])}\s+\S+ {metric['unit']}\s", stdout, re.M)
            assert len(printed) == len(WORKLOADS)


def test_end_to_end_values_travel_with_their_readings_as_measured(run):
    results, _, _ = run
    for workload in WORKLOADS:
        info = results["workloads"][workload]["end_to_end"]["info"]
        assert 0.2 < info["machine_slowdown"]["value"] < 5.0
        for metric in SPEC["end_to_end"]:
            assert math.isfinite(info["raw." + metric["name"]]["value"])


def test_span_parents_resolve(run):
    _, out, _ = run
    for workload in WORKLOADS:
        trace = json.loads((out / f"trace-{workload}.json").read_text())
        spans = {span["id"]: span for span in trace["spans"]}
        assert spans and any(span["name"] == "op" for span in spans.values())
        for span in spans.values():
            assert span["end"] >= span["start"]
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["op"] == span["op"]
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


def test_hot_inproc_rows_sum_to_the_op_span(run):
    _, out, _ = run
    check = json.loads((out / "trace-hot_inproc.json").read_text())["rows_check"]
    assert len(check["rows_us"]) == 4
    assert abs(check["residual_share"]) < 0.15


def test_no_pacing_in_the_benchmark():
    knob = "paced_" + "service_s"
    for path in BENCH.iterdir():
        if path.is_file():
            assert knob not in path.read_text(), path.name
            assert not re.fullmatch(r"(test|bench)_.*\.py", path.name), path.name
