"""Command-line interface: run, trace and report the repo's measurements.

Usage::

    python -m repro list                 # every measurement `run` knows
    python -m repro run fig9             # print one measurement's table
    python -m repro run table2 fig10     # several at once
    python -m repro run fig8 --json      # the raw result dict, sorted keys
    python -m repro run warmpool         # a gated harness: exit 1 on FAIL
    python -m repro trace fig8           # dump a chrome://tracing file
    python -m repro report [PATH]        # regenerate EXPERIMENTS.md
    python -m repro serve --port 8080    # boot the live HTTP service tier

``repro run NAME`` is the one way this CLI executes a measurement.
:data:`EXPERIMENTS` is a literal table: a name maps to a description,
the harness module (its ``run()`` / ``format_report()``) and the fixed
keyword arguments the CLI runs it with -- every other knob is a keyword
of that module's ``run()``.  A gated harness returns ``pass`` and ``run``
exits 1 when it is false: the exit code is the gate, CI adds no check
of its own.  :data:`TRACES` is the same kind of table for ``repro
trace``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from types import ModuleType
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.experiments import (
    chaos,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig15,
    fig17,
    table1,
    table2,
    table34,
    warmpool,
)
from repro.warmpool.manager import STRATEGIES, WarmPoolConfig

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
    "warmpool": (
        "Warm-pool policies: cold-start ratios and scale-to-zero",
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


#: the one model ``repro serve`` deploys (and ``repro trace service`` calls)
_SERVICE_MODEL_ID = "svc-mbnet"


def _service_world(
    *,
    tcs_count: int = 4,
    num_endpoints: int = 1,
    host: str = "127.0.0.1",
    port: int = 0,
    max_inflight: Optional[int] = None,
    warm_pool=None,
):
    """``(env, service)``: a deployed fleet and its HTTP tier, not yet listening.

    ``max_inflight`` defaults to the fleet's TCS capacity (``tcs_count *
    num_endpoints``): admission then never queues work behind a busy
    enclave and everything beyond capacity sheds.  ``warm_pool`` (a
    :class:`~repro.warmpool.manager.WarmPoolConfig`) arms the gateway's
    warm pool, which the service sweeper then drives.  The caller owns
    teardown: ``service.close()``, then ``service.gateway.close()``.
    """
    from repro.core.deployment import SeSeMIEnvironment
    from repro.core.gateway import GatewayConfig
    from repro.core.semirt import SchedulerConfig
    from repro.core.semirt_enclave import default_semirt_config
    from repro.mlrt.zoo import build_mobilenet
    from repro.routing import FnPool
    from repro.service import InferenceService, ServiceConfig

    if max_inflight is None:
        max_inflight = tcs_count * num_endpoints
    env = SeSeMIEnvironment()
    config = default_semirt_config(tcs_count=tcs_count)
    handle = env.deploy(
        build_mobilenet(seed=7), _SERVICE_MODEL_ID, owner="owner", config=config
    )
    pool = FnPool(
        name="svc", models=(_SERVICE_MODEL_ID,), memory_budget=0,
        num_endpoints=num_endpoints,
    )
    scheduler = SchedulerConfig(queue_depth=32)
    gateway = env.gateway(
        pool, config=config, scheduler=scheduler,
        gateway_config=GatewayConfig(warm_pool=warm_pool),
    )
    service = InferenceService(
        env, gateway, [handle],
        config=ServiceConfig(
            host=host,
            port=port,
            max_inflight_total=max_inflight,
            max_inflight_per_tenant=max_inflight,
        ),
        scheduler=scheduler,
    )
    return env, service


def _trace_service() -> list:
    """Spans of two HTTP inferences: client and server trees in one dump.

    The client's ``request`` span carries ``server_trace_id`` pointing at
    the server's ``http:infer`` root, under which the ``route`` and
    ECALL spans parent (tier-1 asserts the chain:
    ``test_client_span_joins_the_server_trace``).
    """
    from repro.mlrt.zoo import build_mobilenet
    from repro.service import RemoteEnvironment

    env, service = _service_world()
    service.start_background()
    try:
        # share the tracer so client and server spans land in one dump
        remote = RemoteEnvironment(
            service.base_url, env.attestation, tracer=env.tracer
        )
        remote.model(_SERVICE_MODEL_ID).grant(remote.connect_user("user"))
        session = remote.session("user", _SERVICE_MODEL_ID)
        x = np.zeros(build_mobilenet().input_spec.shape, dtype=np.float32)
        session.infer(x)
        session.infer(x)
        remote.close()
    finally:
        service.close()
        service.gateway.close()
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
    "service": (
        "two HTTP inferences: client and server trees joined",
        _trace_service,
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

    warm_pool = None
    if args.keep_alive is not None:
        # the deployment door: three flags -> the gateway's WarmPoolConfig
        warm_pool = WarmPoolConfig(
            strategy=args.warm_strategy,
            keep_alive_s=args.keep_alive,
            min_warm=args.min_warm,
        )
    _, svc = _service_world(
        tcs_count=args.tcs,
        num_endpoints=args.endpoints,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        warm_pool=warm_pool,
    )
    print(f"models: {', '.join(sorted(svc.handles))}")
    if svc.gateway.warm_pool is not None:
        print(
            f"warm pool: strategy={args.warm_strategy} "
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


# -- parser assembly ---------------------------------------------------------------


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
        "--warm-strategy", default="lcs", choices=STRATEGIES,
        help="warm-endpoint reuse policy",
    )
    serve_parser.set_defaults(handler=_cmd_serve)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)
