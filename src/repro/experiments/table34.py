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

from functools import partial

from repro.core.simbridge import SemirtSimActor, servable_map
from repro.errors import ConfigError
from repro.experiments.common import (
    action_budget,
    format_table,
    latency_metrics,
    make_driver,
    make_testbed,
)
from repro.mlrt.zoo import profile
from repro.routing import AllInOneRouter, FnPackerRouter, FnPool, OneToOneRouter
from repro.serverless.action import ActionSpec
from repro.workloads.metrics import LatencyStats
from repro.workloads.mlperf import build_fnpacker_workload

MODEL_IDS = ("m0", "m1", "m2", "m3", "m4")
STRATEGIES = ("All-in-one", "One-to-one", "FnPacker")
#: the users of the mix's two Poisson streams (the session user is "analyst")
POISSON_USERS = ("alice", "bob")


def run_strategy(strategy: str, duration_s: float = 480.0, seed: int = 2025,
                 idle_interval_s: float = 10.0) -> dict:
    """Run the mixed workload under one deployment strategy.

    The result: ``poisson`` (``count``, ``mean_s``, ``p50_s`` ...),
    ``sessions`` (``"<session>:<model>"`` -> seconds) and ``cold_starts``.
    """
    bed = make_testbed(num_nodes=8)
    pool = FnPool(name="pool", models=MODEL_IDS, memory_budget=0)
    if strategy == "FnPacker":
        router = FnPackerRouter(pool, idle_interval_s=idle_interval_s)
    elif strategy == "One-to-one":
        router = OneToOneRouter(pool)
    elif strategy == "All-in-one":
        router = AllInOneRouter(pool)
    else:
        raise ConfigError(f"unknown deployment strategy {strategy!r}")
    models = servable_map([(m, profile("RSNET"), "tvm") for m in MODEL_IDS])
    for endpoint, servable_ids in router.endpoints():
        subset = {m: models[m] for m in servable_ids} if servable_ids else models
        action = ActionSpec(
            name=endpoint,
            image="semirt",
            memory_budget=action_budget(next(iter(subset.values()))),
            concurrency=1,
        )
        bed.platform.deploy(action, partial(SemirtSimActor, subset, bed.cost))
    mix = build_fnpacker_workload(duration_s=duration_s, seed=seed)
    driver = make_driver(bed, router)
    driver.submit_arrivals(mix.arrivals)
    for index, session in enumerate(mix.sessions, start=1):
        driver.submit_session(session, index=index)
    report = driver.run(until=duration_s + 3000.0)
    poisson = [r for r in report.results if r.request.user_id in POISSON_USERS]
    return {
        "poisson": latency_metrics(LatencyStats.of(poisson)),
        "sessions": {
            f"{index}:{model_id}": result.latency
            for (index, model_id), result in report.session_results.items()
        },
        "cold_starts": bed.controller.cold_starts,
    }


def run(duration_s: float = 480.0) -> dict:
    """Run the workload under all three strategies."""
    return {
        strategy: run_strategy(strategy, duration_s=duration_s)
        for strategy in STRATEGIES
    }


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
