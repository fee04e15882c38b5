"""Declarative scenario specifications.

A :class:`ScenarioSpec` is the *complete*, serialisable description of
one evaluation run: workload shape (how requests arrive), fleet shape
(what serves them), fault plan (what breaks), and policy knobs (how the
platform reacts).  Specs are plain data -- validated on construction,
round-trippable through dict/JSON, and hashable -- so an experiment is
something you *store and diff*, not a script you rewrite.

This module is deliberately pinned to the stdlib + :mod:`repro.errors`
(enforced by ``scripts/check_layering.py``): a stored manifest must be
loadable for listing and comparison anywhere, without numpy or either
twin on the import path.  Everything that *executes* a spec lives in
:mod:`repro.scenarios.runner`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigError

#: how requests arrive (see :mod:`repro.workloads.arrival`)
WORKLOAD_SHAPES = (
    "fixed",            # evenly spaced at rate_rps
    "poisson",          # Poisson at rate_rps
    "mmpp",             # Markov-modulated Poisson over rates_rps phases
    "diurnal",          # sinusoidal rate between base_rps and rate_rps
    "burst",            # Poisson base + a flash-crowd window at burst_rps
    "fnpacker-mix",     # the Table III/IV mix: Poisson streams + sessions
    "fnpacker-poisson", # only the Poisson half of the mix
    "requests",         # a fixed request count (closed-loop benchmarks)
)

#: who executes a spec (see :mod:`repro.scenarios.runner`): deterministic
#: twins only -- live wall-clock measurement is ``repro run`` and ``bench/``
EXECUTORS = (
    "sim",       # simulated twin: testbed + WorkloadDriver (fig13-style)
    "fnpacker",  # simulated twin behind a routing strategy (table3-style)
    "chaos",     # functional twin + fault injection on a logical clock
    "warmpool",  # warm-pool FleetSim policy sweep in virtual time
)

HARDWARE = ("sgx1", "sgx2")
SYSTEMS = ("Native", "Iso-reuse", "SeSeMI", "Untrusted")
ROUTERS = ("direct", "All-in-one", "One-to-one", "FnPacker")
WARM_POLICIES = ("none", "lcs", "mru", "lcs+predictive")
RESILIENCE_MODES = ("resilient", "baseline", "both")
FAULT_TARGETS = ("primary", "random")

#: keys a fault sweep point may override
_FAULT_SWEEP_KEYS = frozenset({"wire_rate", "crash_rate", "shard_outages"})


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class WorkloadSpec:
    """How requests arrive: shape, rates, duration, identities.

    ``warmup_s``/``warmup_rate_rps`` prepend a Poisson warm-up phase and
    shift the main stream after it (drawn from the *same* seeded RNG, so
    the whole trace is one reproducible sequence -- the Figure 13
    convention).  ``horizon_s`` caps the executor's clock; 0 picks the
    executor's default.  ``seed`` overrides the scenario seed for the
    arrival stream only (fig13 pins its trace to seed 11 regardless of
    the run seed).
    """

    shape: str = "poisson"
    rate_rps: float = 2.0
    rates_rps: Tuple[float, ...] = ()
    phase_s: float = 60.0
    duration_s: float = 240.0
    warmup_s: float = 0.0
    warmup_rate_rps: float = 0.0
    base_rps: float = 0.0
    burst_rps: float = 0.0
    burst_start_s: float = 0.0
    burst_duration_s: float = 0.0
    period_s: float = 86400.0
    requests: int = 0
    model_id: str = "m"
    user_id: str = "user"
    timeline_bucket_s: float = 20.0
    horizon_s: float = 0.0
    seed: int = -1  # -1: use the scenario seed

    def __post_init__(self) -> None:
        _require(self.shape in WORKLOAD_SHAPES,
                 f"unknown workload shape {self.shape!r}")
        _require(self.duration_s > 0, "workload duration must be positive")
        if self.shape in ("fixed", "poisson", "burst"):
            _require(self.rate_rps > 0, f"{self.shape} needs rate_rps > 0")
        if self.shape == "mmpp":
            _require(len(self.rates_rps) >= 1 and
                     all(r > 0 for r in self.rates_rps),
                     "mmpp needs at least one positive phase rate")
            _require(self.phase_s > 0, "mmpp needs phase_s > 0")
        if self.shape == "diurnal":
            _require(self.rate_rps > 0, "diurnal needs a positive peak rate")
            _require(0 <= self.base_rps <= self.rate_rps,
                     "diurnal base_rps must be within [0, rate_rps]")
            _require(self.period_s > 0, "diurnal needs period_s > 0")
        if self.shape == "burst":
            _require(self.burst_rps >= 0 and self.burst_duration_s >= 0,
                     "burst window must be non-negative")
        if self.shape == "requests":
            _require(self.requests > 0, "requests shape needs requests > 0")
        _require(self.warmup_s >= 0, "warmup must be non-negative")
        if self.warmup_s > 0:
            _require(self.warmup_rate_rps > 0,
                     "a warm-up phase needs warmup_rate_rps > 0")
        _require(self.timeline_bucket_s > 0, "timeline bucket must be positive")
        _require(self.horizon_s >= 0, "horizon must be non-negative")

    def arrival_seed(self, scenario_seed: int) -> int:
        """The seed the arrival stream actually uses."""
        return scenario_seed if self.seed < 0 else self.seed


@dataclass(frozen=True)
class FleetSpec:
    """What serves the workload: nodes, hardware, runtime, system."""

    num_nodes: int = 1
    cores_per_node: int = 12
    node_memory_mb: int = 0  # 0: derive from the model's action budget
    node_memory_actions: int = 12
    hardware: str = "sgx2"
    tcs_count: int = 1
    system: str = "SeSeMI"
    systems: Tuple[str, ...] = ()  # sweep; empty means (system,)
    model_name: str = "MBNET"
    framework: str = "tvm"
    model_ids: Tuple[str, ...] = ()  # multi-model fleets (fnpacker)

    def __post_init__(self) -> None:
        _require(self.num_nodes >= 1, "a fleet needs at least one node")
        _require(self.cores_per_node >= 1, "cores_per_node must be >= 1")
        _require(self.node_memory_mb >= 0, "node_memory_mb must be >= 0")
        _require(self.node_memory_actions >= 1,
                 "node_memory_actions must be >= 1")
        _require(self.hardware in HARDWARE,
                 f"unknown hardware {self.hardware!r}")
        _require(self.tcs_count >= 1, "tcs_count must be >= 1")
        _require(self.system in SYSTEMS, f"unknown system {self.system!r}")
        for system in self.systems:
            _require(system in SYSTEMS, f"unknown system {system!r}")
        _require(self.framework in ("tvm", "tflm"),
                 f"unknown framework {self.framework!r}")

    def sweep_systems(self) -> Tuple[str, ...]:
        """The systems this fleet compares (the sweep, or the single one)."""
        return self.systems or (self.system,)


@dataclass(frozen=True)
class FaultSpec:
    """What breaks: the parameters of a seeded, deterministic fault plan.

    Mirrors :meth:`repro.faults.plan.FaultPlan.from_seed`; kept as plain
    data here so manifests stay loadable without the faults subsystem.
    ``sweep`` lists per-point overrides of ``wire_rate`` / ``crash_rate``
    / ``shard_outages`` -- the chaos experiment's grid as data.
    """

    wire_rate: float = 0.0
    crash_rate: float = 0.0
    shard_outages: int = 0
    num_shards: int = 2
    outage_duration: int = 8
    warmup: int = 2
    target: str = "primary"
    sweep: Tuple[Mapping[str, Any], ...] = ()

    def __post_init__(self) -> None:
        _require(0.0 <= self.wire_rate <= 1.0, "wire_rate must be in [0,1]")
        _require(0.0 <= self.crash_rate <= 1.0, "crash_rate must be in [0,1]")
        _require(self.shard_outages >= 0, "shard_outages must be >= 0")
        _require(self.num_shards >= 1, "num_shards must be >= 1")
        _require(self.outage_duration >= 1, "outage_duration must be >= 1")
        _require(self.warmup >= 0, "warmup must be >= 0")
        _require(self.target in FAULT_TARGETS,
                 f"unknown fault target {self.target!r}")
        object.__setattr__(
            self, "sweep", tuple(dict(point) for point in self.sweep)
        )
        for point in self.sweep:
            unknown = set(point) - _FAULT_SWEEP_KEYS
            _require(not unknown,
                     f"fault sweep point has unknown keys {sorted(unknown)}")
            replaced = dataclasses.replace(self, sweep=(), **point)
            assert replaced is not self  # re-validates the overrides

    def points(self) -> Tuple["FaultSpec", ...]:
        """The sweep as concrete per-point specs (or just this one)."""
        if not self.sweep:
            return (self,)
        return tuple(
            dataclasses.replace(self, sweep=(), **point) for point in self.sweep
        )


@dataclass(frozen=True)
class PolicySpec:
    """How the platform reacts: routing, warm pool, resilience."""

    router: str = "direct"
    routers: Tuple[str, ...] = ()  # sweep; empty means (router,)
    idle_interval_s: float = 10.0
    warm_policies: Tuple[str, ...] = ()
    keep_alive_s: float = 30.0
    min_warm: int = 0
    max_endpoints: int = 64
    resilience: str = "both"

    def __post_init__(self) -> None:
        _require(self.router in ROUTERS, f"unknown router {self.router!r}")
        for router in self.routers:
            _require(router in ROUTERS, f"unknown router {router!r}")
        _require(self.idle_interval_s > 0, "idle_interval_s must be positive")
        for policy in self.warm_policies:
            _require(policy in WARM_POLICIES,
                     f"unknown warm policy {policy!r}")
        _require(self.keep_alive_s >= 0, "keep_alive_s must be >= 0")
        _require(self.min_warm >= 0, "min_warm must be >= 0")
        _require(self.max_endpoints >= 1, "max_endpoints must be >= 1")
        _require(self.resilience in RESILIENCE_MODES,
                 f"unknown resilience mode {self.resilience!r}")

    def sweep_routers(self) -> Tuple[str, ...]:
        """The routing strategies to compare (the sweep, or the single one)."""
        return self.routers or (self.router,)

    def resilience_modes(self) -> Tuple[str, ...]:
        """The chaos modes to run."""
        if self.resilience == "both":
            return ("resilient", "baseline")
        return (self.resilience,)


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, runnable, comparable evaluation scenario."""

    name: str
    executor: str
    seed: int = 2025
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    fleet: FleetSpec = field(default_factory=FleetSpec)
    faults: Optional[FaultSpec] = None
    policy: PolicySpec = field(default_factory=PolicySpec)
    notes: str = ""

    def __post_init__(self) -> None:
        _require(bool(self.name), "a scenario needs a name")
        _require(
            all(c.isalnum() or c in "-_." for c in self.name),
            f"scenario name {self.name!r} may only use [A-Za-z0-9-_.] "
            "(it names the run directory)",
        )
        _require(self.executor in EXECUTORS,
                 f"unknown executor {self.executor!r}")
        if self.executor == "chaos":
            _require(self.faults is not None,
                     "the chaos executor needs a fault spec")
            _require(self.workload.shape == "requests",
                     "the chaos executor drives a fixed request count "
                     "(workload shape 'requests')")
        if self.executor == "warmpool":
            _require(bool(self.policy.warm_policies),
                     "the warmpool executor needs policy.warm_policies")

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> dict:
        """The spec as nested plain dicts (JSON-ready)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild (and re-validate) a spec from :meth:`to_dict` output."""
        payload = dict(data)
        parsed: Dict[str, Any] = {}
        for key, sub_cls in (
            ("workload", WorkloadSpec),
            ("fleet", FleetSpec),
            ("policy", PolicySpec),
        ):
            if key in payload:
                parsed[key] = _sub_spec(sub_cls, payload.pop(key), key)
        if "faults" in payload:
            raw = payload.pop("faults")
            parsed["faults"] = (
                None if raw is None else _sub_spec(FaultSpec, raw, "faults")
            )
        unknown = set(payload) - {f.name for f in fields(cls)}
        _require(not unknown, f"unknown scenario fields {sorted(unknown)}")
        return cls(**payload, **parsed)

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators (hash input)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"),
            ensure_ascii=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    # -- identity ----------------------------------------------------------------

    def spec_hash(self) -> str:
        """SHA-256 of the canonical JSON -- the spec's stable identity."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    @property
    def run_id(self) -> str:
        """Deterministic run ID: name, seed, and the spec hash prefix."""
        return f"{self.name}-s{self.seed}-{self.spec_hash()[:10]}"

    # -- derivation --------------------------------------------------------------

    def with_updates(self, updates: Mapping[str, Any]) -> "ScenarioSpec":
        """A new spec with dotted-path overrides applied.

        ``{"workload.duration_s": 60.0, "seed": 7}`` -- the mechanism
        behind sweeps and the CLI's ``--set``.  String values are
        coerced to the field's current type so ``--set seed=7`` works
        from a shell.
        """
        data = self.to_dict()
        for dotted, value in updates.items():
            parts = dotted.split(".")
            node = data
            for part in parts[:-1]:
                _require(
                    isinstance(node, dict) and part in node,
                    f"unknown spec path {dotted!r}",
                )
                node = node[part]
                _require(isinstance(node, dict),
                         f"spec path {dotted!r} does not name a field")
            leaf = parts[-1]
            _require(isinstance(node, dict) and leaf in node,
                     f"unknown spec path {dotted!r}")
            node[leaf] = _coerce(value, node[leaf], dotted)
        return type(self).from_dict(data)


def _sub_spec(sub_cls, raw: Mapping[str, Any], where: str):
    """Build a sub-spec dataclass, rejecting unknown keys."""
    _require(isinstance(raw, Mapping), f"{where} must be a mapping")
    known = {f.name for f in fields(sub_cls)}
    unknown = set(raw) - known
    _require(not unknown, f"unknown {where} fields {sorted(unknown)}")
    kwargs = {}
    for f in fields(sub_cls):
        if f.name not in raw:
            continue
        value = raw[f.name]
        if isinstance(value, list):
            value = tuple(value)
        kwargs[f.name] = value
    return sub_cls(**kwargs)


def _coerce(value: Any, current: Any, dotted: str) -> Any:
    """Cast a CLI-supplied string to the shape of the field it replaces."""
    if not isinstance(value, str) or isinstance(current, str):
        return value
    if isinstance(current, bool):
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{dotted} expects a boolean, got {value!r}")
    if isinstance(current, int):
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{dotted} expects an integer, got {value!r}")
    if isinstance(current, float):
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"{dotted} expects a number, got {value!r}")
    if isinstance(current, (list, tuple)) or current is None:
        try:
            return json.loads(value)
        except json.JSONDecodeError:
            raise ConfigError(f"{dotted} expects JSON, got {value!r}")
    return value
