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
