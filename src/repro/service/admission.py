"""Admission control: bounded inflight, per tenant and overall.

The service boundary -- not the enclave queue -- is where sustained
saturation must turn into *fast* rejections (S3ML and Privado both put
shedding at the RPC tier).  Inside the fleet, ``QueueFull`` reroutes;
here it becomes a 429 decided on the connection's own thread in
microseconds, before any gateway walk or enclave work is spent.

:class:`AdmissionController` is thread-safe: admissions and releases
arrive from every connection thread and from the TTL sweeper.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict

from repro.errors import QueueFull
from repro.service.config import ServiceConfig


class AdmissionController:
    """Decide, in O(1), whether one tenant request may enter the tier.

    Enforces (in order): the per-tenant inflight bound and the total
    inflight bound.  Both shed with :class:`~repro.errors.QueueFull` ->
    429 on the wire -- the same
    backpressure type the enclave admission queue raises, so a client
    treats "service shed" and "fleet saturated" identically.

    :meth:`admit` returns a **release callable**; the caller must
    invoke it exactly once when the request leaves the tier (response
    sent, result fetched, cancelled, or TTL-expired).  Release is
    idempotent per handle.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self._lock = threading.Lock()
        self._inflight_total = 0
        self._inflight: Dict[str, int] = {}
        # shed/admit counters for /v1/stats and the benchmark gates
        self.admitted = 0
        self.shed_tenant = 0
        self.shed_total = 0
        self.released = 0

    def admit(self, tenant: str) -> Callable[[], None]:
        """Admit one request for ``tenant`` or raise :class:`QueueFull`."""
        with self._lock:
            tenant_inflight = self._inflight.get(tenant, 0)
            if tenant_inflight >= self.config.max_inflight_per_tenant:
                self.shed_tenant += 1
                raise QueueFull(
                    f"tenant {tenant!r} has "
                    f"{tenant_inflight} requests in flight"
                )
            if self._inflight_total >= self.config.max_inflight_total:
                self.shed_total += 1
                raise QueueFull(
                    f"service at max inflight "
                    f"({self.config.max_inflight_total})"
                )
            self._inflight[tenant] = tenant_inflight + 1
            self._inflight_total += 1
            self.admitted += 1
        released = False

        def release() -> None:
            nonlocal released
            with self._lock:  # check-and-set under the lock: racing releases count once
                if released:
                    return
                released = True
                self._inflight_total -= 1
                left = self._inflight.get(tenant, 1) - 1
                if left <= 0:
                    self._inflight.pop(tenant, None)
                else:
                    self._inflight[tenant] = left
                self.released += 1

        return release

    @property
    def inflight_total(self) -> int:
        with self._lock:
            return self._inflight_total

    def stats(self) -> dict:
        """A snapshot for ``/v1/stats``."""
        with self._lock:
            return {
                "inflight_total": self._inflight_total,
                "inflight_by_tenant": dict(self._inflight),
                "admitted": self.admitted,
                "released": self.released,
                "shed_tenant": self.shed_tenant,
                "shed_total": self.shed_total,
                "shed": self.shed_tenant + self.shed_total,
            }


__all__ = ["AdmissionController"]
