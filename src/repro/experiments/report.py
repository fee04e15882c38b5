"""Generate EXPERIMENTS.md: paper-vs-measured for every table and figure.

Run with:  python -m repro report [output-path]

Each section runs its experiment as ``repro run`` does
(:data:`repro.cli.EXPERIMENTS`) and renders the module's paper-style
rows, then its verdict: every anchor of the module's ``ANCHORS``
evaluated against that result.  No verdict is written here.
"""

from __future__ import annotations

from repro import cli
from repro.experiments.common import Anchor

HEADER = """# EXPERIMENTS — paper vs. measured

Generated by `python -m repro report`.  Every table and
figure of the paper's evaluation (Section VI + appendix) is regenerated
by a benchmark under `benchmarks/`; this file records the measured
values next to the paper's published ones.

**Reading guide.** The testbed here is a calibrated simulation (see
DESIGN.md section 2), so the expectation is that *shapes* hold — who
wins, by roughly what factor, where crossovers fall — not that absolute
milliseconds match the authors' 11-node SGX cluster.  Where a measured
magnitude deviates materially we say so and explain why.
"""

#: (``repro run`` name, section title) in the paper's order
SECTIONS = (
    ("table1", "Table I — evaluation models"),
    ("fig8", "Figure 8 — cold-invocation stage breakdown"),
    ("fig9", "Figure 9 — invocation paths"),
    ("fig10", "Figure 10 — enclave memory saving"),
    ("fig11", "Figure 11 — latency vs concurrency"),
    ("fig12", "Figure 12 — single-node rate sweeps"),
    ("fig13", "Figures 13 & 14 — multi-node MMPP"),
    ("table2", "Table II — strong-isolation overhead"),
    ("table34", "Tables III & IV — FnPacker"),
    ("fig15", "Figures 15 & 16 — enclave launch / attestation overhead"),
    ("fig17", "Figures 17 & 18 — breakdown with vs without SGX"),
)


def _show(value, unit: str) -> str:
    """A paper or measured value: a phrase, a pair, or a number with its unit."""
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return " vs ".join(_show(v, unit) for v in value)
    if unit == "%":
        return f"{value:.1%}"
    if abs(value) >= 1000:
        text = f"{value:,.0f}"
    else:
        text = f"{value:.1f}" if abs(value) >= 100 else f"{value:.4g}"
    return f"{text}x" if unit == "x" else f"{text} {unit}".rstrip()


def _check(anchor: Anchor) -> str:
    if anchor.kind == "band":
        return f"{_show(anchor.lo, anchor.unit)} to {_show(anchor.hi, anchor.unit)}"
    if anchor.kind == "threshold":
        return (f"> {_show(anchor.lo, anchor.unit)}" if anchor.lo is not None
                else f"< {_show(anchor.hi, anchor.unit)}")
    return "first < second" if anchor.kind == "order" else "magnitude"


def _held(evaluations) -> str:
    gated = [word for anchor, _, _, word in evaluations if anchor.gated]
    return f"{gated.count('holds')} of {len(gated)}"


def _verdict(evaluations) -> str:
    """The verdict line, the anchor table and the stated reasons."""
    lines = [
        f"Verdict: {_held(evaluations)} gated anchors hold.",
        "",
        "| anchor | paper | measured | check | agreement |",
        "|---|---|---|---|---|",
    ]
    for anchor, measured, paper, word in evaluations:
        check = _check(anchor) + (" (report-only)" if anchor.report_only else "")
        lines.append(f"| {anchor.label} | {_show(paper, anchor.unit)} | "
                     f"{_show(measured, anchor.unit)} | {check} | {word} |")
    reasons = [f"- {anchor.label}: {anchor.why}." for anchor, *_ in evaluations if anchor.why]
    return "\n".join(lines + ([""] + reasons if reasons else [])) + "\n"


def build_report() -> str:
    """Run every paper experiment and compose the EXPERIMENTS.md text."""
    parts = [HEADER]
    summary = [
        "\n## Reproduction summary\n\n"
        "| artifact | gated anchors held | deviates | magnitude (measured / paper) |\n"
        "|---|---|---|---|\n"
    ]
    for name, title in SECTIONS:
        _description, module, kwargs = cli.EXPERIMENTS[name]
        result = module.run(**kwargs)
        evaluations = [(anchor, *anchor.evaluate(result)) for anchor in module.ANCHORS]
        parts.append(f"\n## {title}\n\n```\n{module.format_report(result)}\n```\n")
        parts.append(_verdict(evaluations))
        deviates = [a.label for a, _, _, word in evaluations if word == "deviates"]
        factors = [f"{a.label} {w}" for a, _, _, w in evaluations if a.kind == "magnitude"]
        summary.append(f"| {title.split(' — ')[0]} | {_held(evaluations)} | "
                       f"{'; '.join(deviates) or '—'} | {'; '.join(factors) or '—'} |\n")
    return "".join(parts + summary)
