"""Persistent, comparable scenario runs.

A :class:`RunStore` is a directory of runs, one sub-directory per
deterministic run ID (``<scenario>-s<seed>-<spec-hash-prefix>``), each
holding a ``manifest.json`` with the spec, the seed, the git revision,
and the metrics snapshot -- plus an optional Chrome trace.

Manifests are **timestamp-free and canonically formatted** on purpose:
running the same spec with the same seed twice must produce
byte-identical manifests (the ``scenario-smoke`` CI gate ``cmp``\\ s two
of them), which is what makes runs comparable across machines and PRs.

Like :mod:`repro.scenarios.spec`, this module stays stdlib-only so
stored results can be listed and diffed without importing either twin.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ConfigError
from repro.scenarios.spec import ScenarioSpec

#: 2: PolicySpec lost its four live-benchmark fields, so canonical spec
#: bytes (and with them every run id) moved; version-1 stores are refused
MANIFEST_VERSION = 2
MANIFEST_NAME = "manifest.json"
TRACE_NAME = "trace.json"

#: the default store directory (override with ``repro scenario --store``)
DEFAULT_ROOT = "runs"


def current_git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The repository HEAD sha, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


@dataclass(frozen=True)
class RunRecord:
    """One stored run: identity, spec, and the metrics snapshot."""

    run_id: str
    spec: ScenarioSpec
    seed: int
    spec_hash: str
    metrics: Dict[str, Any]
    git_sha: Optional[str] = None
    has_trace: bool = False

    @property
    def scenario(self) -> str:
        return self.spec.name

    def manifest(self) -> dict:
        """The manifest mapping exactly as persisted (deterministic)."""
        return {
            "manifest_version": MANIFEST_VERSION,
            "run_id": self.run_id,
            "scenario": self.scenario,
            "seed": self.seed,
            "spec_hash": self.spec_hash,
            "git_sha": self.git_sha,
            "has_trace": self.has_trace,
            "spec": self.spec.to_dict(),
            "metrics": self.metrics,
        }


class RunStore:
    """A directory of persisted scenario runs."""

    def __init__(self, root: Union[str, Path] = DEFAULT_ROOT) -> None:
        self.root = Path(root)

    # -- writing -----------------------------------------------------------------

    def save(
        self,
        spec: ScenarioSpec,
        metrics: Dict[str, Any],
        *,
        git_sha: Optional[str] = None,
        trace_json: Optional[dict] = None,
    ) -> RunRecord:
        """Persist one run under its deterministic ID (idempotent).

        Re-running the same spec + seed overwrites the same directory
        with byte-identical content (assuming the executor is
        deterministic -- the property CI gates on).
        """
        record = RunRecord(
            run_id=spec.run_id,
            spec=spec,
            seed=spec.seed,
            spec_hash=spec.spec_hash(),
            metrics=_jsonable(metrics),
            git_sha=git_sha,
            has_trace=trace_json is not None,
        )
        run_dir = self.root / record.run_id
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / MANIFEST_NAME).write_text(
            _canonical(record.manifest()) + "\n"
        )
        if trace_json is not None:
            (run_dir / TRACE_NAME).write_text(
                json.dumps(trace_json, sort_keys=True) + "\n"
            )
        return record

    # -- reading -----------------------------------------------------------------

    def list_runs(self) -> List[str]:
        """All stored run IDs, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(
            path.parent.name for path in self.root.glob(f"*/{MANIFEST_NAME}")
        )

    def load(self, run_id: str) -> RunRecord:
        """Load one run's manifest back into a :class:`RunRecord`."""
        path = self.manifest_path(run_id)
        if not path.is_file():
            known = ", ".join(self.list_runs()) or "<empty store>"
            raise ConfigError(
                f"no run {run_id!r} under {self.root} (stored: {known})"
            )
        raw = json.loads(path.read_text())
        version = raw.get("manifest_version")
        if version != MANIFEST_VERSION:
            raise ConfigError(
                f"run {run_id!r} has manifest version {version!r}; "
                f"this tool reads version {MANIFEST_VERSION}"
            )
        return RunRecord(
            run_id=raw["run_id"],
            spec=ScenarioSpec.from_dict(raw["spec"]),
            seed=raw["seed"],
            spec_hash=raw["spec_hash"],
            metrics=raw["metrics"],
            git_sha=raw.get("git_sha"),
            has_trace=bool(raw.get("has_trace")),
        )

    def manifest_path(self, run_id: str) -> Path:
        """Where ``run_id``'s manifest lives (whether or not it exists)."""
        return self.root / run_id / MANIFEST_NAME

    def trace_path(self, run_id: str) -> Path:
        """Where ``run_id``'s Chrome trace lives (if one was captured)."""
        return self.root / run_id / TRACE_NAME


def _canonical(payload: dict) -> str:
    """Deterministic manifest text: sorted keys, fixed indent, ASCII."""
    return json.dumps(
        payload, sort_keys=True, indent=2, ensure_ascii=True,
        allow_nan=False, default=_json_default,
    )


def _jsonable(value: Any) -> Any:
    """Round-trip metrics through canonical JSON types."""
    return json.loads(
        json.dumps(value, sort_keys=True, default=_json_default,
                   allow_nan=False)
    )


def _json_default(value: Any):
    """Fallback for numpy scalars without importing numpy here."""
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)
