"""Shared world-building for the service-tier tests.

``launch_world`` boots the full functional stack -- environment, one
live SeMIRT endpoint behind a gateway, the HTTP service on an
ephemeral port -- and a :class:`~repro.service.client.RemoteEnvironment`
attested against the in-process trust root.  Test modules wrap it in a
module-scoped fixture with whatever pacing/batching knobs they need.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.batching import BatchPolicy
from repro.core.deployment import SeSeMIEnvironment
from repro.core.gateway import GatewayConfig
from repro.core.semirt import SchedulerConfig
from repro.core.semirt_enclave import default_semirt_config
from repro.mlrt.zoo import build_mobilenet
from repro.routing import FnPool
from repro.service import InferenceService, RemoteEnvironment, ServiceConfig
from repro.warmpool.manager import WarmPoolConfig

MODEL_ID = "svc-test"
USER = "svc-user"


class World:
    """One booted service plus the client-side view of it."""

    def __init__(
        self,
        env: SeSeMIEnvironment,
        service: InferenceService,
        remote: RemoteEnvironment,
        x: np.ndarray,
        model=None,
    ) -> None:
        self.env = env
        self.service = service
        self.remote = remote
        self.x = x
        self.model = model
        self.session = remote.session(USER, MODEL_ID)

    def payload(self, enc_request=None, **extra) -> dict:
        """An inference body for the raw wire (``client.request``): the
        session's identifiers around ``enc_request`` (default: ``x`` sealed)."""
        session = self.session
        if enc_request is None:
            enc_request = session.user.encrypt_request(
                session.model_id, session.measurement, self.x
            )
        return {
            "model_id": session.model_id,
            "uid": session.user.principal_id,
            "enc_request": enc_request,
            **extra,
        }

    @property
    def host(self):
        """The single live endpoint host (for enclave-side asserts)."""
        return self.service.gateway.primary_host()

    def close(self) -> None:
        self.remote.close()
        gateway = self.service.gateway
        self.service.close()
        gateway.close()


def launch_world(
    *,
    tcs_count: int = 2,
    paced_s: Optional[float] = None,
    policy: Optional[BatchPolicy] = None,
    max_inflight: int = 8,
    queue_depth: int = 16,
    rate_rps: Optional[float] = None,
    result_ttl_s: float = 120.0,
    share_tracer: bool = False,
    warm_pool: Optional[WarmPoolConfig] = None,
    model_builder=None,
) -> World:
    """Boot a one-endpoint service world and connect a remote user.

    ``model_builder`` swaps the served model (default: the MobileNet
    one-shot workload; the streaming tests pass ``build_tinylm``).
    """
    env = SeSeMIEnvironment()
    model = (model_builder or (lambda: build_mobilenet(seed=11)))()
    config = default_semirt_config(tcs_count=tcs_count)
    handle = env.deploy(model, MODEL_ID, owner="owner", config=config)
    pool = FnPool(
        name="svc-test", models=(MODEL_ID,), memory_budget=0,
        num_endpoints=1,
    )
    scheduler = SchedulerConfig(
        queue_depth=queue_depth, paced_service_s=paced_s, batch=policy
    )
    gateway = env.gateway(
        pool, config=config, scheduler=scheduler,
        gateway_config=(
            GatewayConfig(warm_pool=warm_pool)
            if warm_pool is not None
            else None
        ),
    )
    service = InferenceService(
        env, gateway, [handle],
        config=ServiceConfig(
            max_inflight_total=max_inflight,
            max_inflight_per_tenant=max_inflight,
            rate_rps=rate_rps,
            result_ttl_s=result_ttl_s,
        ),
        scheduler=scheduler,
    )
    service.start_background()
    remote = RemoteEnvironment(
        service.base_url,
        env.attestation,
        tracer=env.tracer if share_tracer else None,
    )
    user = remote.connect_user(USER)
    remote.model(MODEL_ID).grant(user)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(model.input_spec.shape).astype(np.float32)
    return World(env, service, remote, x, model=model)
