"""Invoker nodes: per-machine CPU, memory pool, and SGX hardware.

An invoker is one cluster node that hosts sandbox containers.  It owns:

- a memory pool from which container budgets are reserved (OpenWhisk
  schedules purely on memory, Table V);
- a core pool modelling the 12 physical cores (CPU-bound inference
  contends here, Figure 11a);
- an :class:`~repro.sgx.platform.SgxPlatform` with its EPC and a single
  quoting enclave -- concurrent enclave launches and quote generations on
  one machine slow each other down (Appendix C).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

from repro.errors import PlatformError
from repro.sgx.platform import SGX2, HardwareProfile, SgxPlatform
from repro.sim.core import Simulation
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sgx.attestation import AttestationService

_node_ids = itertools.count(1)


class Invoker:
    """One node available to schedule function instances."""

    def __init__(
        self,
        sim: Simulation,
        memory_bytes: int,
        cores: int = 12,
        hardware: HardwareProfile = SGX2,
        attestation_service: Optional["AttestationService"] = None,
        node_id: Optional[str] = None,
        storage_link: Optional[Resource] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id or f"node-{next(_node_ids)}"
        #: the shared path to cluster storage (one 10 Gbps NFS uplink in
        #: the paper's testbed); concurrent model downloads serialise here
        self.storage_link = storage_link or Resource(
            sim, capacity=1, name=f"{self.node_id}.storage"
        )
        self.memory_total = memory_bytes
        self.memory_used = 0
        self.cores = Resource(sim, capacity=cores, name=f"{self.node_id}.cores")
        self.num_cores = cores
        self.sgx = SgxPlatform(hardware, attestation_service=attestation_service,
                               platform_id=self.node_id)
        #: the single quoting enclave; RA requests serialise through it
        self.quoting = Resource(sim, capacity=1, name=f"{self.node_id}.qe")
        #: the EPC add/extend path admits few truly parallel launches;
        #: concurrent enclave creations queue here.  Two slots reproduce
        #: the appendix anchor (16 concurrent 256 MB launches averaging
        #: ~4 s each on SGX2).
        self.launch_slots = Resource(sim, capacity=2, name=f"{self.node_id}.launch")

    # -- memory pool -------------------------------------------------------------

    @property
    def memory_free(self) -> int:
        return self.memory_total - self.memory_used

    def can_fit(self, budget: int) -> bool:
        """True when ``budget`` bytes are available in the memory pool."""
        return budget <= self.memory_free

    def reserve_memory(self, budget: int) -> None:
        """Claim ``budget`` bytes for a container (raises if over-committed)."""
        if not self.can_fit(budget):
            raise PlatformError(
                f"{self.node_id}: cannot reserve {budget} bytes "
                f"({self.memory_free} free)"
            )
        self.memory_used += budget

    def release_memory(self, budget: int) -> None:
        """Return a container's memory budget to the pool."""
        if budget > self.memory_used:
            raise PlatformError(f"{self.node_id}: releasing more memory than reserved")
        self.memory_used -= budget

    # -- SGX timing hooks ---------------------------------------------------------

    def enclave_init_time(self, memory_bytes: int) -> float:
        """Service time of one launch once it holds a launch slot.

        Queueing on :attr:`launch_slots` models launch concurrency; the
        service time itself is the uncontended init cost, stretched by
        EPC paging when the enclave would overcommit the EPC (SGX1).
        """
        paging = self.sgx.epc.slowdown_for_working_set(memory_bytes)
        return self.sgx.profile.enclave_init_time(memory_bytes, concurrent=1) * paging

    def quote_time(self) -> float:
        """Quote latency given current quoting-enclave queue pressure."""
        concurrent = self.quoting.in_use + self.quoting.queue_length + 1
        return self.sgx.profile.quote_time(concurrent)
