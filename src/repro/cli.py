"""Command-line interface: run, trace and report the repo's measurements.

Usage::

    python -m repro list                 # every measurement `run` knows
    python -m repro run fig9             # print one measurement's table
    python -m repro run table2 fig10     # several at once
    python -m repro run fig8 --json      # the raw result dict, sorted keys
    python -m repro run service --json   # a gated harness: exit 1 on FAIL
    python -m repro trace fig8           # dump a chrome://tracing file
    python -m repro report [PATH]        # regenerate EXPERIMENTS.md
    python -m repro serve --port 8080    # boot the live HTTP service tier

    python -m repro scenario list        # registered specs + stored runs
    python -m repro scenario run NAME    # execute + persist one scenario
    python -m repro scenario compare A B # diff two stored runs
    python -m repro scenario report      # markdown summary of the store

``repro run NAME`` is the one way this CLI executes a measurement.
:data:`EXPERIMENTS` is a literal table: a name maps to a description,
the harness module (its ``run()`` / ``format_report()``) and the fixed
keyword arguments the CLI runs it with -- every other knob is a keyword
of that module's ``run()``.  A gated harness returns ``pass`` and ``run``
exits 1 when it is false: the exit code is the gate, CI adds no check
of its own.  Seeded, parameterised *deterministic* runs are ``repro
scenario run NAME --seed N --set PATH=VALUE``.  :data:`TRACES` is the
same kind of table for ``repro trace``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from types import ModuleType
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.experiments import (
    batching,
    chaos,
    concurrency,
    fig8,
    gateway,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig15,
    fig17,
    service,
    table1,
    table2,
    table34,
    warmpool,
)

#: name -> (description, module exposing ``run``/``format_report``, the
#: fixed keyword arguments ``repro run`` passes to ``run``)
EXPERIMENTS: Dict[str, Tuple[str, ModuleType, dict]] = {
    "table1": ("Table I: evaluation models and buffer sizes", table1, {}),
    "fig8": ("Figure 8: cold-invocation stage breakdown", fig8, {}),
    "fig9": ("Figure 9: cold/warm/hot vs untrusted paths", fig9, {}),
    "fig10": ("Figure 10: enclave memory saving vs concurrency", fig10, {}),
    "fig11": (
        "Figure 11: latency vs concurrency (CPU / EPC bound)", fig11, {},
    ),
    "fig12": (
        "Figure 12: single-node rate sweeps (quick grid)", fig12,
        {"quick": True},
    ),
    "fig13": (
        "Figures 13/14: multi-node MMPP latency and GB-s cost", fig13,
        {"duration_s": 240.0},
    ),
    "table2": ("Table II: strong-isolation overhead", table2, {}),
    "table34": ("Tables III/IV: FnPacker vs baselines", table34, {}),
    "fig15": (
        "Figures 15/16: enclave launch + attestation overhead", fig15, {},
    ),
    "fig17": ("Figures 17/18: breakdown with vs without SGX", fig17, {}),
    "chaos": (
        "Chaos sweep: fault rate vs availability/p99 (quick grid)", chaos,
        {"quick": True},
    ),
    "concurrency": (
        "TCS scheduler: 1- vs 4-TCS hot-path throughput + queue-depth sweep",
        concurrency, {},
    ),
    "batching": (
        "Live micro-batching: hot-path throughput at batch 4 vs 1 (4-TCS host)",
        batching, {},
    ),
    "gateway": (
        "Routed throughput: one gateway, 1 vs 3 live SeMIRT endpoints",
        gateway, {},
    ),
    "service": (
        "HTTP service tier: fast 429 sheds + flat admitted p99 under saturation",
        service, {},
    ),
    "warmpool": (
        "Warm-pool policies: cold-start ratios, scale-to-zero, pre-warming",
        warmpool, {},
    ),
}


def _trace_session() -> list:
    """Span dump of two real inferences (cold then hot) in wall time."""
    from repro.core.deployment import SeSeMIEnvironment
    from repro.mlrt.zoo import build_mobilenet

    env = SeSeMIEnvironment()
    model = build_mobilenet()
    env.deploy(model, "m", owner="owner").grant("user")
    x = np.zeros(model.input_spec.shape, dtype=np.float32)
    with env.session("user", "m") as session:
        session.infer(x)
        session.infer(x)
    return env.tracer.finished_spans()


#: name -> (description, callable returning the finished spans to export)
TRACES: Dict[str, Tuple[str, Callable[[], list]]] = {
    "fig8": (
        "one cold SeSeMI request on the simulated testbed",
        lambda: fig8.traced_cold_request("MBNET", "tvm")[0],
    ),
    "fig17": (
        "one cold request on the untrusted runtime",
        lambda: fig8.traced_cold_request("MBNET", "tvm", system="Untrusted")[0],
    ),
    "chaos": (
        "one resilient chaos run with an injected shard outage",
        chaos.collect_trace,
    ),
    "concurrency": (
        "a paced 4-TCS batch with overlapping ECALL spans",
        concurrency.collect_trace,
    ),
    "batching": (
        "a busy-paced burst served through EC_MODEL_INF_BATCH",
        batching.collect_trace,
    ),
    "gateway": (
        "a routed multi-model batch over two live endpoints",
        gateway.collect_trace,
    ),
    "service": (
        "two HTTP inferences: client and server trees joined",
        service.collect_trace,
    ),
    "session": (
        "a functional cold+hot inference via the session API",
        _trace_session,
    ),
}


# -- commands ---------------------------------------------------------------------


def _json_default(value):
    """JSON fallback for numpy scalars; any other leaf is a harness bug."""
    if isinstance(value, np.generic):
        return float(value)
    raise TypeError(f"{type(value).__name__} is not JSON serialisable")


def _cmd_list(args: argparse.Namespace) -> int:
    del args
    width = max(len(name) for name in EXPERIMENTS)
    for name, (description, _module, _kwargs) in EXPERIMENTS.items():
        print(f"  {name:<{width}}  {description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """Run the named measurements; exit 1 if a gated one reports FAIL."""
    names: List[str] = args.names
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("run `python -m repro list` to see what exists", file=sys.stderr)
        return 2
    if args.json and len(names) > 1:
        print("--json prints one bare result: name one experiment",
              file=sys.stderr)
        return 2
    passed = True
    for name in names:
        description, module, kwargs = EXPERIMENTS[name]
        if not args.json:
            print(f"=== {name}: {description} ===")
        started = time.time()
        result = module.run(**kwargs)
        if args.json:
            print(json.dumps(
                result, indent=2, sort_keys=True, default=_json_default
            ))
        else:
            print(module.format_report(result))
            print(f"[{name} finished in {time.time() - started:.1f}s]\n")
        passed = passed and result.get("pass", True)
    return 0 if passed else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.name not in TRACES:
        print(f"unknown trace source: {args.name}", file=sys.stderr)
        print(
            f"traceable: {', '.join(sorted(TRACES))}", file=sys.stderr
        )
        return 2
    from repro.obs.export import write_chrome_trace

    description, collect = TRACES[args.name]
    path = args.out or f"trace-{args.name}.json"
    started = time.time()
    spans = collect()
    write_chrome_trace(spans, path, service=f"sesemi:{args.name}")
    print(
        f"wrote {len(spans)} spans ({description}) to {path} "
        f"in {time.time() - started:.1f}s -- open with chrome://tracing"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot a live service tier in the foreground (``repro serve``)."""
    from repro.service import serve
    from repro.warmpool.manager import WarmPoolConfig
    from repro.warmpool.predictor import PredictorPolicy

    warm_pool = None
    if args.keep_alive is not None:
        # the deployment door: four flags -> the gateway's WarmPoolConfig
        warm_pool = WarmPoolConfig(
            strategy=args.warm_strategy,
            keep_alive_s=args.keep_alive,
            min_warm=args.min_warm,
            max_endpoints=max(args.endpoints, 8),
            predictive=args.prewarm,
            predictor=PredictorPolicy(slots_per_endpoint=args.tcs),
        )
    _, svc = service.build_world(
        tcs_count=args.tcs,
        num_endpoints=args.endpoints,
        paced_s=args.paced_ms / 1e3 if args.paced_ms > 0 else None,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        background=False,
        warm_pool=warm_pool,
    )
    print(f"models: {', '.join(sorted(svc.handles))}")
    if svc.gateway.warm_pool is not None:
        predictive = " +predictive" if args.prewarm else ""
        print(
            f"warm pool: strategy={args.warm_strategy}{predictive} "
            f"keep_alive={args.keep_alive:.0f}s min_warm={args.min_warm} "
            f"(state under /v1/stats -> warm_pool)"
        )
    try:
        serve(svc)
    finally:
        svc.gateway.close()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import build_report

    started = time.time()
    with open(args.path, "w") as handle:
        handle.write(build_report())
    print(f"wrote {args.path} in {time.time() - started:.1f}s")
    return 0


# -- scenario commands -------------------------------------------------------------


def _load_spec(name: str):
    """A spec by registry name, or from a JSON file path."""
    from pathlib import Path

    from repro.scenarios.registry import get_scenario
    from repro.scenarios.spec import ScenarioSpec

    if name.endswith(".json") or "/" in name:
        return ScenarioSpec.from_json(Path(name).read_text())
    return get_scenario(name)


def _scenario_summary(metrics: dict) -> str:
    """The executor's headline ``summary`` block as a small table."""
    from repro.scenarios.table import format_table

    summary = metrics.get("summary")
    if not isinstance(summary, dict) or not summary:
        return "(no summary metrics)"
    rows = [(key, summary[key]) for key in sorted(summary)]
    return format_table(["metric", "value"], rows)


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    """Execute one scenario; persist manifest (+ trace) under its run ID."""
    from repro.errors import ConfigError
    from repro.scenarios.runner import run_scenario
    from repro.scenarios.store import RunStore, current_git_sha

    try:
        spec = _load_spec(args.name)
        updates: Dict[str, str] = {}
        for item in args.set:
            path, sep, value = item.partition("=")
            if not sep:
                print(f"--set expects PATH=VALUE, got {item!r}", file=sys.stderr)
                return 2
            updates[path] = value
        if args.seed is not None:
            updates["seed"] = str(args.seed)
        if updates:
            spec = spec.with_updates(updates)
    except (ConfigError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    started = time.time()
    result = run_scenario(spec, traced=args.trace)
    trace_json = None
    if args.trace and result.spans:
        from repro.obs.export import to_chrome_trace

        trace_json = to_chrome_trace(
            result.spans, service=f"sesemi:{spec.name}"
        )
    if args.no_save:
        if args.json:
            print(json.dumps(
                result.metrics, indent=2, sort_keys=True,
                default=_json_default,
            ))
        else:
            print(f"run {spec.run_id} ({spec.executor}) "
                  f"in {time.time() - started:.1f}s (not saved)")
            print(_scenario_summary(result.metrics))
        return 0
    store = RunStore(args.store)
    record = store.save(
        spec, result.metrics, git_sha=current_git_sha(),
        trace_json=trace_json,
    )
    if args.json:
        print(store.manifest_path(record.run_id).read_text(), end="")
        return 0
    print(f"run {record.run_id} ({spec.executor}) "
          f"in {time.time() - started:.1f}s")
    print(f"manifest: {store.manifest_path(record.run_id)}")
    if trace_json is not None:
        print(f"trace:    {store.trace_path(record.run_id)}")
    print(_scenario_summary(result.metrics))
    return 0


def _cmd_scenario_list(args: argparse.Namespace) -> int:
    """Registered scenario specs, then the stored runs (if any)."""
    from repro.scenarios.registry import named_scenarios
    from repro.scenarios.store import RunStore

    specs = named_scenarios()
    width = max(len(name) for name in specs)
    print("registered scenarios:")
    for name, spec in specs.items():
        print(f"  {name:<{width}}  [{spec.executor}] {spec.notes}")
    store = RunStore(args.store)
    runs = store.list_runs()
    print()
    if runs:
        print(f"stored runs under {store.root}:")
        for run_id in runs:
            print(f"  {run_id}")
    else:
        print(f"no stored runs under {store.root}")
    return 0


def _cmd_scenario_compare(args: argparse.Namespace) -> int:
    """Diff two stored runs: spec deltas, then metric deltas."""
    from repro.errors import ConfigError
    from repro.scenarios.compare import format_compare, metric_diff, spec_diff
    from repro.scenarios.store import RunStore

    store = RunStore(args.store)
    try:
        a, b = store.load(args.run_a), store.load(args.run_b)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.json:
        diff = metric_diff(a, b)
        payload = {
            "run_a": a.run_id,
            "run_b": b.run_id,
            "spec": [list(row) for row in spec_diff(a, b)],
            "metrics": {
                "common": [list(row) for row in diff["common"]],
                "only_a": diff["only_a"],
                "only_b": diff["only_b"],
            },
        }
        print(json.dumps(payload, indent=2, default=_json_default))
    else:
        print(format_compare(a, b, changed_only=args.changed_only))
    return 0


def _cmd_scenario_report(args: argparse.Namespace) -> int:
    """A markdown summary of every run in the store."""
    from repro.scenarios.compare import format_store_report
    from repro.scenarios.store import RunStore

    store = RunStore(args.store)
    records = [store.load(run_id) for run_id in store.list_runs()]
    text = format_store_report(records)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.out} ({len(records)} runs)")
    else:
        print(text, end="")
    return 0


# -- parser assembly ---------------------------------------------------------------


def _add_scenario_parsers(sub) -> None:
    """The ``repro scenario`` command group (run/list/compare/report)."""
    scenario_parser = sub.add_parser(
        "scenario",
        help="declarative scenario registry: run, list, compare, report",
    )
    scen_sub = scenario_parser.add_subparsers(
        dest="scenario_command", required=True
    )
    store_parent = argparse.ArgumentParser(add_help=False)
    store_parent.add_argument(
        "--store", default="runs",
        help="run-store directory (default: runs/)",
    )
    run_parser = scen_sub.add_parser(
        "run", parents=[store_parent],
        help="execute one scenario and persist its manifest",
    )
    run_parser.add_argument(
        "name", help="registered scenario name, or a path to a spec JSON file"
    )
    run_parser.add_argument(
        "--json", action="store_true",
        help="print the persisted manifest as JSON",
    )
    run_parser.add_argument(
        "--seed", type=int, default=None,
        help="override the spec's seed (changes the run ID)",
    )
    run_parser.add_argument(
        "--set", action="append", default=[], metavar="PATH=VALUE",
        help="dotted spec override, e.g. --set workload.duration_s=60",
    )
    run_parser.add_argument(
        "--trace", action="store_true",
        help="capture spans and write trace.json next to the manifest",
    )
    run_parser.add_argument(
        "--no-save", action="store_true",
        help="run without writing to the store",
    )
    run_parser.set_defaults(handler=_cmd_scenario_run)
    list_parser = scen_sub.add_parser(
        "list", parents=[store_parent],
        help="registered scenarios and stored runs",
    )
    list_parser.set_defaults(handler=_cmd_scenario_list)
    compare_parser = scen_sub.add_parser(
        "compare", parents=[store_parent],
        help="diff two stored runs (spec fields, then metrics)",
    )
    compare_parser.add_argument("run_a", help="first stored run ID")
    compare_parser.add_argument("run_b", help="second stored run ID")
    compare_parser.add_argument(
        "--json", action="store_true",
        help="emit the structured diff as JSON",
    )
    compare_parser.add_argument(
        "--changed-only", action="store_true",
        help="hide metrics with zero delta",
    )
    compare_parser.set_defaults(handler=_cmd_scenario_compare)
    report_parser = scen_sub.add_parser(
        "report", parents=[store_parent],
        help="markdown summary of every stored run",
    )
    report_parser.add_argument(
        "--out", default=None, help="write to a file instead of stdout"
    )
    report_parser.set_defaults(handler=_cmd_scenario_report)


def build_parser() -> argparse.ArgumentParser:
    """The whole ``repro`` argument parser (``main`` and the docs test use it)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SeSeMI reproduction: run the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    list_parser = sub.add_parser("list", help="list available experiments")
    list_parser.set_defaults(handler=_cmd_list)
    run_parser = sub.add_parser(
        "run",
        help="run one or more experiments (exit 1 if a gated one fails)",
    )
    run_parser.add_argument("names", nargs="+", help="experiment names")
    run_parser.add_argument(
        "--json", action="store_true",
        help="print the one named experiment's raw result dict as JSON",
    )
    run_parser.set_defaults(handler=_cmd_run)
    trace_parser = sub.add_parser(
        "trace", help="run a traced workload and dump a chrome://tracing file"
    )
    trace_parser.add_argument("name", help="trace source (see errors for choices)")
    trace_parser.add_argument(
        "--out", default=None, help="output path (default: trace-<name>.json)"
    )
    trace_parser.set_defaults(handler=_cmd_trace)
    report_parser = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    report_parser.add_argument("path", nargs="?", default="EXPERIMENTS.md")
    report_parser.set_defaults(handler=_cmd_report)
    _add_scenario_parsers(sub)
    serve_parser = sub.add_parser(
        "serve", help="boot the HTTP service tier over a live gateway"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8080,
        help="bind port (0 picks an ephemeral one)",
    )
    serve_parser.add_argument(
        "--tcs", type=int, default=4, help="TCS count per endpoint"
    )
    serve_parser.add_argument(
        "--endpoints", type=int, default=1, help="endpoints in the pool"
    )
    serve_parser.add_argument(
        "--paced-ms", type=float, default=0.0,
        help="per-request service-time floor in ms (0 disables pacing)",
    )
    serve_parser.add_argument(
        "--max-inflight", type=int, default=None,
        help="admission bound (default: fleet TCS capacity)",
    )
    serve_parser.add_argument(
        "--keep-alive", type=float, default=None, metavar="SECONDS",
        help="arm the warm pool: retire endpoints idle this long "
             "(default: warm pool off)",
    )
    serve_parser.add_argument(
        "--min-warm", type=int, default=1,
        help="endpoints the janitor always keeps alive (0: scale to zero)",
    )
    serve_parser.add_argument(
        "--warm-strategy", default="lcs", choices=("lcs", "mru", "affinity"),
        help="warm-endpoint reuse policy",
    )
    serve_parser.add_argument(
        "--prewarm", action="store_true",
        help="launch endpoints ahead of predicted demand (EWMA rates)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)
