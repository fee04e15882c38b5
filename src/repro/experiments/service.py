"""Service-tier saturation benchmark: fast sheds, flat admitted p99.

The HTTP tier's whole job under overload is captured by two numbers:

* a **shed** request (429 from the admission controller) must cost
  microseconds server-side -- the decision runs on the event loop
  before any executor thread, gateway walk, or enclave work -- so its
  client-observed latency stays in single-digit milliseconds; and
* an **admitted** request must not get slower just because the tier is
  refusing work around it: with ``max_inflight_total`` pinned to the
  fleet's TCS capacity, every admitted request lands on an idle worker
  and its p99 stays within a small factor of the unsaturated baseline.

The benchmark measures both with real traffic: a live SeMIRT endpoint
(paced to a fixed service-time floor so the numbers model on-hardware
execution, exactly like the concurrency/gateway benchmarks), the real
service tier in front of it, and :class:`~repro.workloads.driver.
LiveLoadDriver` closed loops over :class:`~repro.service.client.
RemoteSession` -- first unsaturated (clients <= capacity), then with
several times more clients than inflight slots so most arrivals shed.

``run()`` decides the gates itself (``repro run service`` exits 1 when
one fails; CI keeps the result as ``BENCH_service.json``):
``shed_p99_ms`` < 10, ``admitted_p99_ms`` <= 1.5x ``baseline_p99_ms``,
``hung == 0``, ``shed_count`` > 0.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import from_wire
from repro.core.deployment import SeSeMIEnvironment
from repro.core.gateway import GatewayConfig
from repro.core.semirt import SchedulerConfig
from repro.core.semirt_enclave import default_semirt_config
from repro.experiments.common import format_gates
from repro.mlrt.zoo import build_mobilenet
from repro.routing import FnPool
from repro.service import (
    InferenceService,
    RemoteEnvironment,
    ServiceConfig,
)
from repro.warmpool.manager import WarmPoolConfig
from repro.workloads.driver import LiveLoadDriver, LiveReport

MODEL_ID = "svc-mbnet"

#: shed requests must come back this fast even under full saturation
SHED_P99_GATE_MS = 10.0
#: admitted p99 under saturation, as a multiple of the unsaturated p99
ADMITTED_SLOWDOWN_GATE = 1.5


def build_world(
    *,
    tcs_count: int = 4,
    num_endpoints: int = 1,
    paced_s: Optional[float] = 0.04,
    queue_depth: int = 32,
    host: str = "127.0.0.1",
    port: int = 0,
    max_inflight: Optional[int] = None,
    model_seed: int = 7,
    background: bool = True,
    warm_pool: Optional[WarmPoolConfig] = None,
) -> Tuple[SeSeMIEnvironment, InferenceService]:
    """A deployed environment with the service tier already listening.

    ``max_inflight`` defaults to the fleet's TCS capacity
    (``tcs_count * num_endpoints``): admission then never queues work
    behind a busy enclave, which is what keeps admitted latency flat
    while everything beyond capacity sheds.  ``warm_pool`` arms the
    gateway's warm pool (``docs/warmpool.md``): the service sweeper
    then drives its janitor and pre-warmer.  The caller owns teardown:
    ``service.close()`` then ``env.gateways`` via the returned env's
    gateway handle (``service.gateway.close()``).
    """
    capacity = tcs_count * num_endpoints
    if max_inflight is None:
        max_inflight = capacity
    env = SeSeMIEnvironment()
    model = build_mobilenet(seed=model_seed)
    config = default_semirt_config(tcs_count=tcs_count)
    handle = env.deploy(model, MODEL_ID, owner="owner", config=config)
    pool = FnPool(
        name="svc-bench", models=(MODEL_ID,), memory_budget=0,
        num_endpoints=num_endpoints,
    )
    scheduler = SchedulerConfig(
        queue_depth=queue_depth, paced_service_s=paced_s
    )
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
    if background:
        service.start_background()
    return env, service


def _connect(env: SeSeMIEnvironment, service: InferenceService,
             tracer=None) -> RemoteEnvironment:
    """A remote client attested against the in-process trust root."""
    remote = RemoteEnvironment(
        service.base_url, env.attestation, tracer=tracer
    )
    user = remote.connect_user("bench-user")
    remote.model(MODEL_ID).grant(user)
    return remote


def run(
    duration_s: float = 3.0,
    paced_ms: float = 200.0,
    tcs_count: int = 2,
    baseline_clients: int = 2,
    saturated_clients: int = 8,
    model_seed: int = 7,
) -> dict:
    """Two closed-loop phases against one live service; gate the deltas.

    Phase one runs ``baseline_clients`` (< capacity: no shedding) for
    the unsaturated latency floor; phase two runs ``saturated_clients``
    (well beyond the inflight slots) so most arrivals shed at
    admission.  Both phases reuse the same warm service so the
    comparison isolates saturation, not cold starts.

    The loops replay one pre-sealed request through the raw
    :class:`~repro.service.client.ServiceClient`: the server path is
    unchanged (admission, gateway walk, in-enclave decrypt/infer/seal
    all run), but the *client* skips its pure-Python AEAD per request
    -- at 12 GIL-sharing threads that crypto would dominate every
    latency number and the gates would measure the client, not the
    tier.  End-to-end crypto is exercised during warm-up and by
    :func:`collect_trace`.
    """
    paced_s = paced_ms / 1e3 if paced_ms > 0 else None
    env, service = build_world(
        tcs_count=tcs_count, paced_s=paced_s, model_seed=model_seed
    )
    try:
        remote = _connect(env, service)
        session = remote.session("bench-user", MODEL_ID)
        x = np.zeros(
            build_mobilenet(seed=model_seed).input_spec.shape,
            dtype=np.float32,
        )
        # warm off the clock: enclave launch, key release, first ECALL
        # (full client crypto on these two)
        for _ in range(2):
            session.infer(x)

        payload = {
            "model_id": MODEL_ID,
            "uid": session.user.principal_id,
            "enc_request": session.user.encrypt_request(
                MODEL_ID, session.measurement, x
            ),
        }

        def issue(client: int, seq: int) -> None:
            status, reply, _ = remote.client.request(
                "POST", "/v1/infer", payload
            )
            if status >= 400:
                raise from_wire(reply, status)

        driver = LiveLoadDriver(issue)
        baseline = driver.closed_loop(baseline_clients, duration_s)
        saturated = driver.closed_loop(
            saturated_clients, duration_s, think_s=0.005
        )
        stats = remote.stats()
        remote.close()
    finally:
        gateway = service.gateway
        service.close()
        gateway.close()

    result = {
        "duration_s": duration_s,
        "paced_ms": paced_ms,
        "tcs_count": tcs_count,
        "max_inflight": service.config.max_inflight_total,
        "baseline_clients": baseline_clients,
        "saturated_clients": saturated_clients,
        "baseline": baseline.summary(),
        "saturated": saturated.summary(),
        "admission": stats["admission"],
    }
    result.update(_gates(baseline, saturated))
    return result


def _gates(baseline: LiveReport, saturated: LiveReport) -> dict:
    """The flat gate fields plus the pass/fail verdicts."""
    baseline_p99_ms = 1e3 * baseline.percentile_s(0.99)
    admitted_p99_ms = 1e3 * saturated.percentile_s(0.99)
    shed_p99_ms = 1e3 * saturated.percentile_s(0.99, "sheds")
    shed_count = len(saturated.sheds())
    hung = baseline.hung + saturated.hung
    gates = {
        "sheds_happened": shed_count > 0,
        "sheds_fast": shed_p99_ms < SHED_P99_GATE_MS,
        "admitted_flat": (
            admitted_p99_ms <= ADMITTED_SLOWDOWN_GATE * baseline_p99_ms
        ),
        "no_hangs": hung == 0,
    }
    return {
        "baseline_p99_ms": baseline_p99_ms,
        "admitted_p99_ms": admitted_p99_ms,
        "shed_p99_ms": shed_p99_ms,
        "shed_count": shed_count,
        "hung": hung,
        "gates": gates,
        "pass": all(gates.values()),
    }


def format_report(result: dict) -> str:
    """Render the two phases and the gate verdicts as a small table."""
    lines = [
        f"service tier over 1 endpoint x {result['tcs_count']} TCS, "
        f"paced to {result['paced_ms']:.0f} ms, "
        f"max_inflight={result['max_inflight']}, "
        f"{result['duration_s']:.0f}s per phase",
        f"{'phase':>10} {'clients':>8} {'admitted':>9} {'shed':>6} "
        f"{'p50':>8} {'p99':>8} {'shed p99':>9}",
    ]
    for phase, clients in (
        ("baseline", result["baseline_clients"]),
        ("saturated", result["saturated_clients"]),
    ):
        row = result[phase]
        lines.append(
            f"{phase:>10} {clients:>8} {row['admitted']:>9} "
            f"{row['shed']:>6} {row['admitted_p50_ms']:>7.1f}m "
            f"{row['admitted_p99_ms']:>7.1f}m {row['shed_p99_ms']:>8.2f}m"
        )
    lines.append(format_gates(result))
    return "\n".join(lines)


def collect_trace(paced_ms: float = 40.0) -> list:
    """Spans of one HTTP inference, client and server trees in one dump.

    The client span (``request``, ``transport=http``) carries
    ``server_trace_id`` pointing at the server's ``http:infer`` root,
    under which the route and ECALL spans parent -- tier-1 asserts
    exactly this client -> service -> gateway -> ECALL chain
    (``test_client_span_joins_the_server_trace``).
    """
    env, service = build_world(paced_s=paced_ms / 1e3)
    try:
        # share the tracer so client and server spans land in one dump
        remote = _connect(env, service, tracer=env.tracer)
        session = remote.session("bench-user", MODEL_ID)
        x = np.zeros(
            build_mobilenet(seed=7).input_spec.shape, dtype=np.float32
        )
        session.infer(x)
        session.infer(x)
        remote.close()
    finally:
        gateway = service.gateway
        service.close()
        gateway.close()
    return env.tracer.finished_spans()
