"""Every table and figure keeps its paper shape.

Each deterministic ``repro run NAME`` runs once, exactly as the CLI runs
it (:data:`repro.cli.EXPERIMENTS`), and its paper-style rows are printed
(``-s`` shows them).  Every gated anchor of the module's ``ANCHORS`` is
one test, evaluated against that result by the evaluator the report
uses; the checks below with no paper number are structural.
``python -m pytest benchmarks -q`` is the CI ``paper-shape`` job.
"""

from functools import lru_cache

import pytest

from repro import cli
from repro.experiments import warmpool


@lru_cache(maxsize=None)
def _result(name):
    _description, module, kwargs = cli.EXPERIMENTS[name]
    result = module.run(**kwargs)
    print()
    print(module.format_report(result))
    return result


def check_table1(result):
    assert len(result["paper_rows"]) == 3


def check_fig10(result):
    assert result["peak"][0] == "TFLM-RSNET"


def check_warmpool(result):
    assert result["reduction"] >= warmpool.REDUCTION_GATE
    assert result["scale_to_zero"]["scaled_to_floor"]
    # keep-alive alone must already beat the no-keep-alive baseline on
    # both workloads
    for workload in warmpool.WORKLOADS:
        rows = result["workloads"][workload]
        assert rows["lcs"]["cold_ratio"] < rows["none"]["cold_ratio"] / 3


STRUCTURAL = {"table1": check_table1, "fig10": check_fig10, "warmpool": check_warmpool}

#: ``(name, anchor)`` for every gated anchor of every ``repro run`` module
GATED = [
    (name, anchor)
    for name, (_description, module, _kwargs) in cli.EXPERIMENTS.items()
    for anchor in getattr(module, "ANCHORS", ())
    if anchor.gated
]


@pytest.mark.parametrize("name", STRUCTURAL)
def test_structure(name):
    STRUCTURAL[name](_result(name))


@pytest.mark.parametrize(
    "name, anchor", GATED, ids=[f"{name}: {anchor.label}" for name, anchor in GATED]
)
def test_paper_anchor(name, anchor):
    measured, paper, word = anchor.evaluate(_result(name))
    assert word == "holds", f"{anchor.label}: measured {measured!r}, paper {paper!r}"
