"""The paper anchors: the evaluator's four kinds, and the guard that each
paper number is stated once -- in its experiment's ``ANCHORS`` (or the
``PAPER_*`` table it reads) -- and checked by the paper-shape suite."""

import ast
import re
from pathlib import Path

import pytest

from benchmarks import bench_paper_shape
from repro import cli
from repro.experiments import report
from repro.experiments.common import Anchor

ROOT = Path(__file__).resolve().parents[2]


def _value(result):
    return result


@pytest.mark.parametrize(
    "kind, lo, hi, inside, outside",
    [
        ("band", 0.9, 1.1, 1.1, 1.2),
        ("band", 0.9, 1.1, 0.9, 0.89),
        ("order", None, None, (1.0, 2.0), (2.0, 1.0)),
        ("order", None, None, (1.0, 2.0), (2.0, 2.0)),
        ("threshold", 0.6, None, 0.61, 0.6),
        ("threshold", None, 0.1, 0.09, 0.1),
    ],
)
def test_each_kind_holds_inside_its_bound_and_deviates_outside(kind, lo, hi, inside, outside):
    anchor = Anchor("a", 1.0, _value, kind, lo, hi)
    assert anchor.gated
    assert anchor.evaluate(inside) == (inside, 1.0, "holds")
    assert anchor.evaluate(outside) == (outside, 1.0, "deviates")


def test_a_magnitude_reports_its_factor_and_is_never_gated():
    anchor = Anchor("m", 2.0, _value, "magnitude", unit="s")
    assert not anchor.gated
    for measured, factor in ((2.0, "1.00x"), (200.0, "100.00x"), (0.02, "0.01x")):
        assert anchor.evaluate(measured) == (measured, 2.0, f"{factor} paper")
    assert not Anchor("o", "a first", _value, "order", report_only=True).gated


def test_an_unknown_kind_is_refused_when_evaluated():
    with pytest.raises(ValueError):
        Anchor("x", 1.0, _value, "roughly").evaluate(1.0)


def _paper_modules():
    return [cli.EXPERIMENTS[name][1] for name, _title in report.SECTIONS]


def test_every_paper_anchor_is_gated_by_the_suite_or_report_only():
    gated = {id(anchor) for _name, anchor in bench_paper_shape.GATED}
    for module in _paper_modules():
        assert module.ANCHORS, module.__name__
        for anchor in module.ANCHORS:
            assert (id(anchor) in gated) == anchor.gated, anchor.label
    anchored = {
        path.stem for path in (ROOT / "src/repro/experiments").glob("*.py")
        if re.search(r"^ANCHORS = ", path.read_text(), re.M)
    }
    assert anchored == {m.__name__.rsplit(".", 1)[1] for m in _paper_modules()}


#: where a paper number may not be restated
SCANNED = [
    *sorted((ROOT / "src/repro/experiments").glob("*.py")),
    ROOT / "benchmarks/bench_paper_shape.py",
    ROOT / "tests/experiments/test_experiments.py",
]
NUMBER = re.compile(r"(?<![\w.])\d+(?:\.\d+)?")


def _outside_the_tables(path: Path) -> str:
    """``path``'s text with its ``ANCHORS`` and ``PAPER_*`` assignments blanked."""
    lines = path.read_text().splitlines()
    for node in ast.parse("\n".join(lines)).body:
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if any(n == "ANCHORS" or n.startswith("PAPER") for n in names):
            lines[node.lineno - 1:node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def _significant(token: str) -> int:
    return len(token.replace(".", "").lstrip("0").rstrip("0"))


def _stated(text: str, value: float, unit: str) -> list:
    """The spots in ``text`` that write ``value``: anywhere when the literal
    has three significant digits or more, else only right before ``unit``."""
    spots = []
    for match in NUMBER.finditer(text):
        if float(match.group()) != value:
            continue
        after = text[match.end():match.end() + len(unit) + 1].lstrip(" ")
        if _significant(match.group()) >= 3 or (unit and after.startswith(unit)):
            spots.append(text[max(0, match.start() - 30):match.end() + 10])
    return spots


def test_each_anchored_paper_number_is_stated_nowhere_else():
    texts = {path: _outside_the_tables(path) for path in SCANNED}
    offenders = []
    for module in _paper_modules():
        for anchor in module.ANCHORS:
            papers = anchor.paper if isinstance(anchor.paper, tuple) else (anchor.paper,)
            for paper in papers:
                if isinstance(paper, str):
                    continue
                forms = [(paper, anchor.unit)]
                if anchor.unit == "%":
                    forms.append((round(paper * 100, 6), "%"))
                for path, text in texts.items():
                    for value, unit in forms:
                        offenders += [
                            (anchor.label, path.name, spot)
                            for spot in _stated(text, value, unit)
                        ]
    assert not offenders
