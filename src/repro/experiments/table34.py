"""Tables III & IV: FnPacker under infrequent, unpredictable traffic.

The workload (Section VI-D, MLPerf-style) mixes Poisson streams to two
popular models (``m0``, ``m1`` at 2 rps for 8 minutes) with two
interactive sessions (~minutes 4 and 6) that query ``m0``..``m4``
sequentially.  All five models are TVM-RSNET instances with different
ids.  Three deployment strategies are compared:

- **All-in-one**: one endpoint serves every model -> the Poisson streams
  interfere and sandboxes keep swapping models;
- **One-to-one**: one endpoint per model -> the first session pays a
  full cold start for each of ``m2``..``m4``;
- **FnPacker**: popular models get exclusive endpoints; the session's
  infrequent models share one warm endpoint, so only the first of them
  cold-starts.

Table III reports the average latency of the Poisson requests; Table IV
the per-model latency inside each session.
"""

from __future__ import annotations

from repro.experiments.common import format_table
from repro.scenarios.registry import table34_spec
from repro.scenarios.runner import run_scenario

MODEL_IDS = ("m0", "m1", "m2", "m3", "m4")
STRATEGIES = ("All-in-one", "One-to-one", "FnPacker")


def run_strategy(strategy: str, duration_s: float = 480.0, seed: int = 2025,
                 idle_interval_s: float = 10.0) -> dict:
    """Run the mixed workload under one deployment strategy.

    Declared as a single-router :class:`~repro.scenarios.spec.ScenarioSpec`
    (``table34_spec``) and executed by the scenario runner, whose metrics
    for that strategy are the result: ``poisson`` (``count``, ``mean_s``,
    ``p50_s`` ...), ``sessions`` (``"<session>:<model>"`` -> seconds) and
    ``cold_starts``.
    """
    spec = table34_spec(
        duration_s=duration_s, seed=seed, strategies=(strategy,),
        idle_interval_s=idle_interval_s,
    )
    return run_scenario(spec).metrics["strategies"][strategy]


def run(duration_s: float = 480.0) -> dict:
    """Run the workload under all three strategies (one spec, one sweep)."""
    spec = table34_spec(duration_s=duration_s, strategies=STRATEGIES)
    return run_scenario(spec).metrics["strategies"]


def format_report(result: dict) -> str:
    """Render Tables III and IV as paper-style text tables."""
    table3_rows = [
        (
            strategy,
            data["poisson"]["mean_s"] * 1000,
            data["poisson"]["p95_s"] * 1000,
            data["cold_starts"],
        )
        for strategy, data in result.items()
    ]
    lines = [
        "Table III -- average latency of Poisson traffic to m0/m1 (ms).",
        "Paper: All-in-one 1700.50, One-to-one 1456.01, FnPacker 1465.79.",
        "",
        format_table(
            ["strategy", "avg latency (ms)", "p95 (ms)", "cold starts"], table3_rows
        ),
        "",
        "Table IV -- interactive session latency per model (ms).",
        "Paper: One-to-one pays ~9.4-9.9s colds for m2-m4 in session 1;",
        "FnPacker cold-starts only m2; session 2 is warm everywhere.",
        "",
    ]
    for session_index in (1, 2):
        rows = []
        for model_id in MODEL_IDS:
            row = [model_id]
            for strategy in STRATEGIES:
                latency = result[strategy]["sessions"].get(f"{session_index}:{model_id}")
                row.append(latency * 1000 if latency is not None else float("nan"))
            rows.append(tuple(row))
        lines.append(f"Session {session_index}:")
        lines.append(format_table(["model", *STRATEGIES], rows))
        lines.append("")
    return "\n".join(lines)
