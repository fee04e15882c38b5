"""Chaos experiment: fault rate vs availability and tail latency.

For each sweep point we run the *same* deterministic fault schedule
(seeded :class:`~repro.faults.plan.FaultPlan`: wire drop/corrupt/delay,
SeMIRT enclave crashes, one KeyService shard crash/restart cycle)
against two configurations of the functional twin:

- **resilient** -- a two-shard :class:`~repro.core.keyfleet.KeyServiceFleet`
  behind a :class:`~repro.core.keyfleet.FailoverEndpoint`, with the
  retry/deadline/breaker machinery of :mod:`repro.faults.resilience`
  enabled on :meth:`~repro.core.deployment.UserSession.infer`;
- **baseline** -- the same fleet, but requests pinned to the user's
  primary shard and every failure surfaced to the caller (the paper's
  implicit deployment model).

Latency is measured on a :class:`~repro.obs.span.LogicalClock`: every
timed operation advances one tick, so retries, re-attestations, and
cold relaunches lengthen a request by a deterministic number of ticks
and the whole report -- availability, percentiles, fault counts -- is a
pure function of the seed.  That is what lets CI assert byte-identical
JSON across runs (the ``chaos-smoke`` job).

The key cache is disabled (`IsolationSettings(key_cache=False)`) so
every request performs KEY_PROVISIONING: a KeyService shard outage is
on the critical path of the whole workload, not just the first request.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.client import OwnerClient, UserClient
from repro.core.deployment import SeSeMIEnvironment
from repro.core.keyfleet import FailoverEndpoint, KeyServiceFleet
from repro.core.semirt_enclave import IsolationSettings
from repro.crypto.hashes import sha256
from repro.crypto.keys import SymmetricKey
from repro.errors import ReproError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.faults.resilience import ResiliencePolicy
from repro.mlrt.zoo import build_mobilenet
from repro.obs.span import LogicalClock
from repro.obs.tracer import Tracer
from repro.sgx.attestation import AttestationService

#: the two models the workload alternates between (same input shape)
MODEL_IDS = ("chaos-m1", "chaos-m2")


def _fixed_key(label: str) -> SymmetricKey:
    """A deterministic identity key (stable id => stable shard homes)."""
    return SymmetricKey(sha256(label.encode())[:16])


def _user_primary_shard(num_shards: int = 2) -> int:
    """The fixed chaos user's primary shard (hash placement, no fleet)."""
    uid = _fixed_key("user").fingerprint
    return int(uid[:8], 16) % num_shards


def _percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1)))
    return sorted_values[index]


def _count_events(spans, name: str) -> int:
    """Total occurrences of span event ``name`` across a span dump."""
    return sum(
        1
        for span in spans
        for event in span.events
        if event["name"] == name
    )


def _run_mode(
    seed: int,
    requests: int,
    plan: FaultPlan,
    resilient: bool,
    warmup: int = 2,
):
    """One chaos run: fixed plan, one resilience configuration.

    Builds a fresh two-shard fleet + environment, replicates the
    principals' registrations and key releases onto every home shard of
    the user, then serves ``requests`` alternating-model inferences
    while the injector executes the plan.  Returns ``(metrics, spans)``.
    """
    tracer = Tracer(service="chaos", clock=LogicalClock())
    attestation = AttestationService()
    fleet = KeyServiceFleet(2, attestation)
    injector = FaultInjector(plan, tracer=tracer)
    injector.on(
        FaultKind.SHARD_CRASH,
        lambda event: fleet.kill_shard(event.params["shard"]),
    )
    injector.on(
        FaultKind.SHARD_RESTART,
        lambda event: fleet.restart_shard(event.params["shard"]),
    )

    owner = OwnerClient("chaos-owner", tracer=tracer, identity_key=_fixed_key("owner"))
    user = UserClient("chaos-user", tracer=tracer, identity_key=_fixed_key("user"))
    uid = user.identity_key.fingerprint
    if resilient:
        endpoint = FailoverEndpoint(fleet, uid, tracer=tracer)
        policy: Optional[ResiliencePolicy] = ResiliencePolicy(seed=seed)
    else:
        endpoint = fleet.shard_for(uid)  # pinned to the primary, no failover
        policy = None
    env = SeSeMIEnvironment(
        tracer=tracer,
        attestation=attestation,
        keyservice=endpoint,
        injector=injector,
        resilience=policy,
    )

    # fault-free setup (the injector is not armed yet): deploy both
    # models once, then replicate registration + key release onto every
    # home shard of the user -- RA-TLS terminates inside the enclave, so
    # replication is necessarily client-side.
    isolation = IsolationSettings(key_cache=False)
    models = {
        MODEL_IDS[0]: build_mobilenet(seed=7),
        MODEL_IDS[1]: build_mobilenet(seed=8),
    }
    for model_id, model in models.items():
        owner.deploy_model(model, model_id, env.storage)
    enclave_id = env.expected_semirt("tvm", None, isolation)
    for shard_index in fleet.homes_for(uid):
        shard = fleet.shards[shard_index]
        owner.connect(shard, attestation, fleet.measurement)
        owner.register()
        user.connect(shard, attestation, fleet.measurement)
        user.register()
        for model_id in MODEL_IDS:
            owner.add_model_key(model_id)
            owner.grant_access(model_id, enclave_id, uid)
            user.add_request_key(model_id, enclave_id)
    env.adopt_user(user)

    sessions = [
        env.session(user, model_id, isolation=isolation)
        for model_id in MODEL_IDS
    ]
    x = np.zeros(models[MODEL_IDS[0]].input_spec.shape, dtype=np.float32)
    clock = tracer.clock
    ok = 0
    failed = 0
    durations: List[float] = []
    for index in range(requests):
        if index == warmup:
            injector.arm()
        injector.step()
        session = sessions[index % len(sessions)]
        started = clock.now()
        try:
            session.infer(x)
        except ReproError:
            failed += 1
        else:
            ok += 1
            durations.append(clock.now() - started)
    for session in sessions:
        session.close()

    spans = tracer.finished_spans()
    durations.sort()
    metrics = {
        "availability": ok / requests,
        "ok": ok,
        "failed": failed,
        "p50_ticks": _percentile(durations, 0.50),
        "p99_ticks": _percentile(durations, 0.99),
        "retries": _count_events(spans, "retry"),
        "reattests": _count_events(spans, "keyservice_reattest"),
        "failovers": getattr(endpoint, "failovers", 0),
        "faults": injector.counts(),
        "spans": len(spans),
    }
    return metrics, spans


def run(
    seed: int = 2025,
    requests: int = 40,
    quick: bool = False,
) -> dict:
    """Sweep fault rate against availability/latency, both modes.

    Every number in the result is a pure function of ``seed`` and the
    arguments -- run it twice and the JSON matches byte for byte.  The
    sweep is declared as a :class:`~repro.scenarios.spec.ScenarioSpec`
    (``chaos_spec``) whose fault grid is data; the scenario runner
    executes it through :func:`_run_mode` above.
    """
    from repro.scenarios.registry import chaos_spec
    from repro.scenarios.runner import run_scenario

    spec = chaos_spec(seed=seed, requests=requests, quick=quick)
    result = run_scenario(spec)
    return {
        "seed": seed,
        "requests": spec.workload.requests,
        "points": result.metrics["points"],
    }


def collect_trace(seed: int = 2025, requests: int = 24) -> list:
    """Span dump of one resilient chaos run (for ``repro trace chaos``).

    The trace shows fault events (``fault:*``), re-attestations, retries
    and failovers inline on the request spans -- the recovery story of
    one deterministic outage, in chrome://tracing form.
    """
    plan = FaultPlan.from_seed(
        seed, requests, wire_rate=0.1, crash_rate=0.04,
        shard_outages=1, num_shards=2, target_shard=_user_primary_shard(),
    )
    _, spans = _run_mode(seed, requests, plan, resilient=True)
    return spans


def format_report(result: dict) -> str:
    """Render the sweep as a paper-style text table."""
    from repro.experiments.common import format_table

    headers = [
        "wire rate", "crash rate", "mode", "avail", "ok/failed",
        "p50 ticks", "p99 ticks", "retries", "reattests", "failovers",
    ]
    rows = []
    for point in result["points"]:
        for mode in ("resilient", "baseline"):
            metrics = point["modes"][mode]
            rows.append(
                (
                    point["wire_rate"],
                    point["crash_rate"],
                    mode,
                    f"{metrics['availability']:.3f}",
                    f"{metrics['ok']}/{metrics['failed']}",
                    metrics["p50_ticks"],
                    metrics["p99_ticks"],
                    metrics["retries"],
                    metrics["reattests"],
                    metrics["failovers"],
                )
            )
    lines = [
        "Chaos sweep -- deterministic fault injection vs the resilience",
        f"layer (seed {result['seed']}, {result['requests']} requests per run,",
        "one KeyService shard outage per point; key cache disabled so every",
        "request crosses KeyService).",
        "",
        format_table(headers, rows),
    ]
    return "\n".join(lines)
