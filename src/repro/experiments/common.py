"""Shared experiment scaffolding: testbeds, deployment, sweep helpers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.costs import CostModel
from repro.errors import RoutingError
from repro.routing import Router
from repro.core.simbridge import (
    IsoReuseSimActor,
    NativeSimActor,
    SemirtSimActor,
    ServableModel,
    UntrustedSimActor,
    servable_map,
)
from repro.mlrt.zoo import profile
from repro.obs.span import SimClock
from repro.obs.tracer import Tracer
from repro.serverless.action import ActionSpec, round_memory_budget
from repro.serverless.controller import PlatformConfig
from repro.serverless.platform import ServerlessPlatform
from repro.serverless.storage import NFS, StorageProfile
from repro.sgx.epc import GB, MB
from repro.sgx.platform import SGX1, SGX2, HardwareProfile
from repro.sim.core import Simulation
from repro.workloads.driver import WorkloadDriver
from repro.workloads.metrics import LatencyStats

SYSTEMS = ("Native", "Iso-reuse", "SeSeMI")


@dataclass
class Testbed:
    """One simulated cluster ready to run an experiment."""

    sim: Simulation
    platform: ServerlessPlatform
    cost: CostModel
    tracer: Optional[Tracer] = None

    @property
    def controller(self):
        return self.platform.controller


def make_testbed(
    num_nodes: int = 1,
    node_memory: int = 64 * GB,
    cores_per_node: int = 12,
    hardware: HardwareProfile = SGX2,
    storage: StorageProfile = NFS,
    config: Optional[PlatformConfig] = None,
    traced: bool = False,
) -> Testbed:
    """A cluster mirroring the paper's testbed defaults.

    With ``traced=True`` a :class:`~repro.obs.tracer.Tracer` on the
    simulation clock is attached to the controller, so every request
    produces a span tree in virtual time (``bed.tracer``).
    """
    sim = Simulation()
    tracer = Tracer(clock=SimClock(sim)) if traced else None
    platform = ServerlessPlatform(
        sim,
        num_nodes=num_nodes,
        node_memory=node_memory,
        cores_per_node=cores_per_node,
        hardware=hardware,
        storage_profile=storage,
        config=config,
        tracer=tracer,
    )
    cost = CostModel(hardware=hardware, storage=storage)
    return Testbed(sim=sim, platform=platform, cost=cost, tracer=tracer)


def sgx1_testbed(
    num_nodes: int = 1,
    cores_per_node: int = 10,
    node_memory: int = 12 * GB + 512 * MB,  # the 12.5 GB of Table V
    storage: StorageProfile = NFS,
) -> Testbed:
    """The EPC-limited SGX1 configuration (128 MB EPC, Xeon W-1290P)."""
    return make_testbed(
        num_nodes=num_nodes,
        node_memory=node_memory,
        cores_per_node=cores_per_node,
        hardware=SGX1,
        storage=storage,
    )


def system_factory(
    system: str,
    models: Dict[str, ServableModel],
    cost: CostModel,
    tcs_count: int = 1,
):
    """Runtime factory for one of the paper's systems (SeSeMI alone takes TCS)."""
    if system == "SeSeMI":
        return partial(SemirtSimActor, models, cost, tcs_count=tcs_count)
    baselines = {
        "Iso-reuse": IsoReuseSimActor,
        "Native": NativeSimActor,
        "Untrusted": UntrustedSimActor,
    }
    if system not in baselines:
        raise ValueError(f"unknown system {system!r}")
    return partial(baselines[system], models, cost)


def action_budget(servable: ServableModel, tcs_count: int = 1) -> int:
    """The container memory budget for a model (smallest 128 MB multiple)."""
    total = servable.enclave_bytes + (tcs_count - 1) * servable.buffer_bytes
    return round_memory_budget(total)


def deploy_single_model(
    bed: Testbed,
    system: str,
    model_name: str,
    framework: str,
    tcs_count: int = 1,
    endpoint: str = "ep",
    model_id: str = "m",
) -> Dict[str, ServableModel]:
    """Deploy one model behind one endpoint for ``system``."""
    models = servable_map([(model_id, profile(model_name), framework)])
    spec = ActionSpec(
        name=endpoint,
        image=f"{system.lower()}-{framework}",
        memory_budget=action_budget(models[model_id], tcs_count),
        concurrency=tcs_count if system == "SeSeMI" else 1,
    )
    bed.platform.deploy(spec, system_factory(system, models, bed.cost, tcs_count))
    return models


class DirectRouter(Router):
    """Trivial router mapping every model id to a fixed endpoint."""

    def __init__(self, endpoint: str) -> None:
        self._endpoint = endpoint

    def endpoints(self) -> List[Tuple[str, Tuple[str, ...]]]:
        """The single fixed endpoint."""
        return [(self._endpoint, ())]

    def route(self, model_id: str, now: float, exclude=frozenset()) -> str:
        """The fixed endpoint -- unless the caller has excluded it.

        ``exclude`` is the retry contract of :class:`~repro.routing.Router`:
        the caller already knows those endpoints cannot take the request,
        so returning one anyway would send the retry straight back into
        the failure.  With a single endpoint there is nowhere else to go.
        """
        if self._endpoint in exclude:
            raise RoutingError(
                f"endpoint {self._endpoint!r} is excluded and "
                "DirectRouter has no alternative"
            )
        return self._endpoint


def make_driver(bed: Testbed, router: Optional[Router] = None,
                endpoint: str = "ep") -> WorkloadDriver:
    """A workload driver bound to the testbed's controller."""
    return WorkloadDriver(bed.sim, bed.controller, router or DirectRouter(endpoint))


def latency_metrics(stats: LatencyStats) -> dict:
    """A :class:`LatencyStats` as plain numbers: ``count``, ``mean_s`` ... ``max_s``."""
    return {
        "count": stats.count,
        "mean_s": stats.mean,
        "p50_s": stats.p50,
        "p95_s": stats.p95,
        "p99_s": stats.p99,
        "max_s": stats.max,
    }


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render rows as a fixed-width text table for bench output."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}" if abs(value) >= 100 else f"{value:.3f}"
    return str(value)


def format_gates(result: dict) -> str:
    """The verdict line of a gated harness: each gate, then PASS/FAIL."""
    verdicts = ", ".join(
        f"{name}={'ok' if ok else 'FAIL'}"
        for name, ok in result["gates"].items()
    )
    return f"gates: {verdicts} -> {'PASS' if result['pass'] else 'FAIL'}"
