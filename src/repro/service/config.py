"""Service-tier configuration.

One :class:`ServiceConfig` owns the HTTP front door's **own** policy:
where it listens, how much work it admits, and when it sheds.  Like
:class:`~repro.core.semirt.SchedulerConfig` these are **operator
policy, not enclave identity** -- nothing here enters a measurement.
The fleet behind the door is configured where it lives: the warm pool
is ``GatewayConfig(warm_pool=WarmPoolConfig(...))`` (``docs/warmpool.md``)
and the service sweeper reads its cadence from the gateway's pool.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for one :class:`~repro.service.server.InferenceService`.

    Admission semantics (``docs/service.md``):

    ``max_inflight_total`` / ``max_inflight_per_tenant``
        Bounded concurrent admitted requests, overall and per user id.
        A request beyond either bound is shed with a fast 429 -- the
        decision runs on the connection's thread, before any enclave work.
    ``default_deadline_s``
        Server-side cap on how long a sync ``/v1/infer`` may wait for
        the gateway; exceeded -> 504 (``DeadlineExceeded``).
    ``poll_wait_cap_s``
        Cap on one long-poll of ``GET /v1/results/{id}`` so a client
        cannot pin its connection thread indefinitely.
    ``result_ttl_s``
        How long a terminal (unfetched) result is retained before the
        sweeper drops it and releases its admission slot.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0: bind an ephemeral port (tests, benchmarks)
    max_inflight_total: int = 64
    max_inflight_per_tenant: int = 16
    default_deadline_s: float = 30.0
    poll_wait_cap_s: float = 10.0
    result_ttl_s: float = 120.0
    max_body_bytes: int = 8 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.max_inflight_total < 1:
            raise ConfigError("max_inflight_total must be >= 1")
        if self.max_inflight_per_tenant < 1:
            raise ConfigError("max_inflight_per_tenant must be >= 1")
        if self.default_deadline_s <= 0:
            raise ConfigError("default_deadline_s must be positive")
        if self.poll_wait_cap_s <= 0:
            raise ConfigError("poll_wait_cap_s must be positive")
        if self.result_ttl_s <= 0:
            raise ConfigError("result_ttl_s must be positive")
        if self.max_body_bytes < 1024:
            raise ConfigError("max_body_bytes must be >= 1024")


__all__ = ["ServiceConfig"]
