"""Routed-throughput benchmark: one gateway, 1 vs 3 live endpoints.

The simulated twin's Tables III/IV measure FnPacker against baselines
in virtual time; this experiment measures the *functional* routing
plane: a three-model :class:`~repro.routing.FnPool` served through
:class:`~repro.core.gateway.InferenceGateway` by real SeMIRT enclaves,
first on a single endpoint, then on three.

A single hot model never spreads -- FnPacker Rule 1 pins it to its
pending endpoint on purpose -- so the fleet win comes from *packing*:
with three models in flight, exclusivity parks each model on its own
endpoint and the fleet serves them in parallel.  Requests are paced to
a fixed service-time floor for the same reason as the concurrency
benchmark (the stand-in models execute in microseconds; the floor
models on-hardware execution and its sleep releases the GIL, so routed
requests genuinely overlap).  Endpoints run ``tcs_count=1`` so that
every bit of parallelism in the numbers is the router's doing, not the
TCS scheduler's.  The default floor is higher than the concurrency
benchmark's because the *client* side here -- request encryption and
response decryption for six concurrent callers -- is GIL-bound Python;
the floor must dominate it for fleet width to show up in throughput.

Routing behaviour is verified from the trace: each run reports the
distinct endpoints that actually served traffic, how many requests ran
under an exclusive assignment, and how many were rerouted.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import List, Optional

import numpy as np

from repro.core.deployment import SeSeMIEnvironment
from repro.core.semirt import SchedulerConfig
from repro.core.semirt_enclave import default_semirt_config
from repro.mlrt.zoo import build_mobilenet
from repro.routing import FnPool

MODEL_IDS = ("gw-m0", "gw-m1", "gw-m2")


@contextmanager
def _world(num_endpoints: int, requests: int, paced_s: Optional[float],
           model_seed: int):
    """A deployed environment plus one gateway session per model.

    Yields ``(env, gateway, sessions, x)`` and closes the gateway (every
    endpoint it launched) on the way out, also when the lane raises.
    """
    env = SeSeMIEnvironment()
    model = build_mobilenet(seed=model_seed)
    config = default_semirt_config(tcs_count=1)
    for model_id in MODEL_IDS:
        env.deploy(model, model_id, owner="owner", config=config).grant("user")
    pool = FnPool(
        name="gw-bench", models=MODEL_IDS, memory_budget=0,
        num_endpoints=num_endpoints,
    )
    gateway = env.gateway(
        pool,
        config=config,
        scheduler=SchedulerConfig(
            queue_depth=max(16, requests), paced_service_s=paced_s
        ),
    )
    sessions = [
        env.session("user", model_id, config=config, gateway=gateway)
        for model_id in MODEL_IDS
    ]
    x = np.zeros(model.input_spec.shape, dtype=np.float32)
    try:
        yield env, gateway, sessions, x
    finally:
        gateway.close()


def _drive(sessions, x, requests: int, client_width: int) -> List[BaseException]:
    """Serve ``requests`` round-robin over the models, ``client_width`` wide."""
    with ThreadPoolExecutor(max_workers=client_width) as clients:
        served = [
            clients.submit(sessions[index % len(sessions)].infer, x)
            for index in range(requests)
        ]
    errors = [handle.exception() for handle in served]
    return [error for error in errors if error is not None]


def _routed_run(num_endpoints: int, requests: int, paced_s: Optional[float],
                client_width: int, model_seed: int) -> dict:
    """One timed batch through a fresh ``num_endpoints``-wide gateway."""
    with _world(num_endpoints, requests, paced_s, model_seed) as (
        env, gateway, sessions, x,
    ):
        # Pre-launch every endpoint off the clock.  Pending counts only rise
        # at dispatch (after admission), so concurrent *cold* first requests
        # would all route to endpoint 0 while its enclave is still starting,
        # and the fleet would never spread.
        for endpoint, _ in gateway.router.endpoints():
            gateway.ensure_host(endpoint)
        # Concurrent warm-up over live hosts: overlapping first requests
        # spread the models across the fleet and prefetch their keys.
        errors = _drive(sessions, x, len(sessions), client_width=len(sessions))
        env.tracer.clear()
        started = time.perf_counter()
        errors += _drive(sessions, x, requests, client_width)
        elapsed = time.perf_counter() - started
        if errors:
            raise errors[0]
    route_spans = [
        s for s in env.tracer.finished_spans() if s.name == "route"
    ]
    return {
        "endpoints": num_endpoints,
        "requests": requests,
        "elapsed_s": elapsed,
        "throughput_rps": requests / elapsed,
        "endpoints_used": sorted(
            {s.attributes["endpoint"] for s in route_spans}
        ),
        "exclusive_requests": sum(
            1 for s in route_spans if s.attributes["exclusive"]
        ),
        "reroutes": sum(s.attributes["reroutes"] for s in route_spans),
    }


def run(
    requests: int = 24,
    paced_ms: float = 150.0,
    endpoint_counts=(1, 3),
    client_width: int = 6,
    model_seed: int = 7,
) -> dict:
    """Measure routed throughput for each fleet width in ``endpoint_counts``.

    Returns one row per width plus the ``speedup`` of the widest fleet
    over the narrowest -- the routed analogue of the concurrency
    benchmark's TCS speedup.
    """
    paced_s = paced_ms / 1e3 if paced_ms > 0 else None
    rows = [
        _routed_run(count, requests, paced_s, client_width, model_seed)
        for count in endpoint_counts
    ]
    speedup = (
        rows[-1]["throughput_rps"] / rows[0]["throughput_rps"]
        if len(rows) > 1
        else 1.0
    )
    return {
        "requests": requests,
        "paced_ms": paced_ms,
        "models": len(MODEL_IDS),
        "client_width": client_width,
        "runs": rows,
        "speedup": speedup,
    }


def format_report(result: dict) -> str:
    """Render the result dict as a small fleet-width table."""
    lines = [
        f"routed throughput, {result['requests']} requests over "
        f"{result['models']} models, paced to {result['paced_ms']:.0f} ms, "
        f"{result['client_width']} concurrent clients",
        f"{'fleet':>6} {'rps':>8} {'elapsed':>9} {'used':>5} "
        f"{'exclusive':>10} {'reroutes':>9}",
    ]
    for row in result["runs"]:
        lines.append(
            f"{row['endpoints']:>6} {row['throughput_rps']:>8.1f} "
            f"{row['elapsed_s']:>8.2f}s {len(row['endpoints_used']):>5} "
            f"{row['exclusive_requests']:>10} {row['reroutes']:>9}"
        )
    lines.append(
        f"speedup ({result['runs'][-1]['endpoints']} vs "
        f"{result['runs'][0]['endpoints']} endpoints): "
        f"{result['speedup']:.2f}x"
    )
    return "\n".join(lines)


def collect_trace(requests: int = 9, paced_ms: float = 50.0) -> list:
    """Spans of one routed batch on two endpoints (``repro trace gateway``)."""
    with _world(2, requests, paced_ms / 1e3, model_seed=7) as (
        env, _gateway, sessions, x,
    ):
        errors = _drive(sessions, x, requests, client_width=4)
        if errors:
            raise errors[0]
    return env.tracer.finished_spans()
