"""Estimators shared by the end-to-end and traced runs.

On a small shared VM the same code runs 20-70 % slower for tens of
seconds at a time (see bench/README.md), so a plain median over a run
takes whatever level the run happened to meet.  Every end-to-end
estimate is therefore taken per window of the closed loop -- about a
second of operations between two calibration points of
``calibrate.py`` -- put at reference machine speed with that window's
slowdown, and reported as the mean of the middle half of the windows: a
window hit by a stall drops out, and what the yardstick leaves over
moves the value smoothly.  Sample counts travel with every value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: equal-count windows, at most, of a loop that ran without calibration points
WINDOWS = 12


@dataclass
class Op:
    """One closed-loop operation as its caller saw it.

    ``t0`` is the call, ``outs`` the arrival time of every decrypted
    output (one for an inference, one per token for a stream), ``t1``
    the moment the caller could issue its next operation.  ``key``
    names the generated input so the output can be checked against its
    reference after the run.
    """

    caller: int
    key: int
    t0: float
    t1: float = 0.0
    outs: List[float] = field(default_factory=list)
    output: Any = None
    error: Optional[str] = None


@dataclass
class Window:
    """One stretch of the closed loop and the machine's slowdown around it."""

    ops: List[Op]
    started: float
    slowdown: float = 1.0


def p50(values: Sequence[float]) -> float:
    """Median of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=float), 50))


def midmean(values: Sequence[float]) -> float:
    """Mean of the middle half of ``values`` (the interquartile mean)."""
    ordered = np.sort(np.asarray(values, dtype=float))
    trim = len(ordered) // 4
    return float(np.mean(ordered[trim:len(ordered) - trim]))


def split(ops: Sequence[Op], started: float) -> List[Window]:
    """Equal-count windows, in completion order, of one uninterrupted loop.

    At most ``WINDOWS``, fewer when that would leave a window under three
    operations, which is too few to have a gap between two of them.
    """
    done = sorted(ops, key=lambda op: op.t1)
    windows, edge = [], started
    for chunk in np.array_split(np.arange(len(done)), max(1, min(WINDOWS, len(done) // 3))):
        windows.append(Window([done[i] for i in chunk], edge))
        edge = done[chunk[-1]].t1
    return windows


def output_gaps(ops: Sequence[Op]) -> List[float]:
    """Seconds between consecutive decrypted outputs at one caller.

    ``ops`` are in call order.  Inside an operation that yields several
    outputs (a token stream) these are the inter-token gaps; an
    operation with a single output contributes the gap since the same
    caller's previous output, i.e. that caller's full request cycle
    including tear-down.
    """
    gaps: List[float] = []
    last_out = {}
    for op in (op for op in ops if op.outs):
        if len(op.outs) > 1:
            gaps.extend(np.diff(op.outs).tolist())
        elif op.caller in last_out:
            gaps.append(op.outs[0] - last_out[op.caller])
        last_out[op.caller] = op.outs[-1]
    return gaps


def window_values(window: Window) -> Dict[str, Tuple[float, int]]:
    """One window's own estimates as measured: name -> (value, samples).

    A name is absent when the window has no sample for it.  The rate
    counts every caller's outputs once, over the wall time from the
    window's start to its last completion.
    """
    ops = sorted(window.ops, key=lambda op: op.t0)  # callers interleaved in run order
    done = [op for op in ops if op.outs]
    values = {}
    for name, samples in (
        ("latency", [op.outs[0] - op.t0 for op in done]), ("output_gap", output_gaps(ops))
    ):
        if samples:
            for q in (50, 95):
                values[f"{name}_p{q}_ms"] = (float(np.percentile(samples, q)) * 1e3, len(samples))
    if done:
        outputs = sum(len(op.outs) for op in done)
        values["outputs_per_s"] = (outputs / (max(op.t1 for op in done) - window.started), outputs)
    return values


def window_rates(windows: Sequence[Window]) -> List[float]:
    """Outputs per second in each window, as measured."""
    return [window_values(w)["outputs_per_s"][0] for w in windows]


def end_to_end(windows: Sequence[Window]) -> Tuple[dict, dict]:
    """The bounded per-run metrics, and values that are only reported.

    ``setup_s`` is added to the first by the caller.  A time is divided
    by its window's slowdown and a rate multiplied by it; the value is
    the midmean over the windows.  Reported beside them: the same
    estimates as measured (``raw.*``), the mean slowdown, and the p95
    tails, whose run-to-run spread was too wide to gate (bench/README.md).
    """
    rows = [(window_values(w), w.slowdown) for w in windows]

    def metric(name: str, unit: str, at_reference: bool = True) -> dict:
        found = [(row[name], slow) for row, slow in rows if name in row]
        if not found:
            raise SystemExit(f"bench: too few operations to estimate {name}")
        values = []
        for (value, _), slow in found:
            if at_reference:
                value = value * slow if unit == "1/s" else value / slow
            values.append(value)
        return {
            "value": midmean(values), "unit": unit, "samples": sum(n for (_, n), _ in found),
        }

    names = (("latency_p50_ms", "ms"), ("output_gap_p50_ms", "ms"), ("outputs_per_s", "1/s"))
    bounded = {name: metric(name, unit) for name, unit in names}
    reported = {"raw." + name: metric(name, unit, at_reference=False) for name, unit in names}
    reported["machine_slowdown"] = {
        "value": float(np.mean([slow for _, slow in rows])), "unit": "ratio", "samples": len(rows),
    }
    for name in ("latency_p95_ms", "output_gap_p95_ms"):
        reported[name] = metric(name, "ms")
    return bounded, reported
