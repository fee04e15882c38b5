"""Scenario registry: declarative specs, persistent comparable runs.

An evaluation is described once as a :class:`ScenarioSpec` (workload,
fleet, faults, policy), executed by :func:`run_scenario` against either
twin, and persisted by :class:`RunStore` under a deterministic run ID
so any two runs can be diffed with :func:`format_compare`.  The named
:func:`~repro.scenarios.registry.named_scenarios` registry is what the
``repro scenario`` CLI serves; the migrated figure/table benchmarks
build their specs from the same builders.

See ``docs/scenarios.md``.
"""

from repro.scenarios.compare import (
    flatten,
    format_compare,
    format_store_report,
    metric_diff,
    spec_diff,
)
from repro.scenarios.registry import (
    chaos_spec,
    fig13_latency_spec,
    get_scenario,
    named_scenarios,
    scenario_names,
    table34_spec,
    warmpool_mmpp_spec,
    warmpool_poisson_spec,
)
from repro.scenarios.runner import (
    ScenarioResult,
    build_arrivals,
    run_scenario,
)
from repro.scenarios.spec import (
    EXECUTORS,
    WORKLOAD_SHAPES,
    FaultSpec,
    FleetSpec,
    PolicySpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.scenarios.store import RunRecord, RunStore, current_git_sha
from repro.scenarios.table import format_table

__all__ = [
    "EXECUTORS",
    "WORKLOAD_SHAPES",
    "FaultSpec",
    "FleetSpec",
    "PolicySpec",
    "RunRecord",
    "RunStore",
    "ScenarioResult",
    "ScenarioSpec",
    "WorkloadSpec",
    "build_arrivals",
    "chaos_spec",
    "current_git_sha",
    "fig13_latency_spec",
    "flatten",
    "format_compare",
    "format_store_report",
    "format_table",
    "get_scenario",
    "metric_diff",
    "named_scenarios",
    "run_scenario",
    "scenario_names",
    "spec_diff",
    "table34_spec",
    "warmpool_mmpp_spec",
    "warmpool_poisson_spec",
]
