#!/usr/bin/env python
"""Merge per-job benchmark JSON artifacts into one trajectory file.

CI jobs each upload one benchmark result (``BENCH_service.json``,
``BENCH_warmpool.json``, ``BENCH_scenario.json``, ...).  The
``bench-trajectory`` job downloads them all and runs::

    python scripts/merge_bench.py --root artifacts --out BENCH_trajectory.json

producing a single consolidated document: one entry per benchmark,
keyed by the artifact's stem, plus the list of source files.  The
output is deterministic for a given input set (sorted keys, no
timestamps), so trajectory files from two runs of the same commit can
be diffed directly -- the same property the scenario run store has.

Stdlib-only, importable (``merge_paths``) so the test suite can cover
it without spawning a process.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List

#: files that are benchmark results rather than auxiliary JSON
_SKIP_STEMS = {"trace", "manifest"}


def find_bench_files(root: Path) -> List[Path]:
    """Benchmark JSON files under ``root``, depth-first, sorted by name.

    Chrome traces and scenario manifests ride along in the same
    artifact downloads; they are indexes of other gates, not benchmark
    results, so they are skipped by stem.
    """
    out = []
    for path in sorted(root.rglob("*.json"), key=lambda p: (p.name, str(p))):
        stem = path.stem.lower()
        if any(skip in stem for skip in _SKIP_STEMS):
            continue
        out.append(path)
    return out


def _key(path: Path) -> str:
    """The benchmark key of a file: ``BENCH_service.json`` -> ``service``."""
    stem = path.stem
    if stem.startswith("BENCH_"):
        stem = stem[len("BENCH_"):]
    return stem


def merge_paths(paths: Iterable[Path], root: Path) -> dict:
    """The consolidated trajectory document for ``paths``."""
    benchmarks: Dict[str, object] = {}
    sources: Dict[str, str] = {}
    for path in paths:
        key = _key(path)
        if key in benchmarks:
            raise SystemExit(
                f"duplicate benchmark key {key!r}: "
                f"{sources[key]} and {path}"
            )
        try:
            benchmarks[key] = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SystemExit(f"{path}: not valid JSON ({exc})")
        try:
            sources[key] = str(path.relative_to(root))
        except ValueError:
            sources[key] = str(path)
    return {
        "trajectory_version": 1,
        "benchmarks": benchmarks,
        "sources": sources,
    }


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        description="merge per-job benchmark JSON into one trajectory file"
    )
    parser.add_argument(
        "--root", default="artifacts",
        help="directory the CI artifacts were downloaded into",
    )
    parser.add_argument(
        "--out", default="BENCH_trajectory.json",
        help="consolidated output path",
    )
    args = parser.parse_args(argv)
    root = Path(args.root)
    if not root.is_dir():
        print(f"no artifact directory at {root}", file=sys.stderr)
        return 2
    paths = find_bench_files(root)
    if not paths:
        print(f"no benchmark JSON under {root}", file=sys.stderr)
        return 2
    merged = merge_paths(paths, root)
    Path(args.out).write_text(
        json.dumps(merged, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"merged {len(paths)} benchmark file(s) into {args.out}: "
        + ", ".join(sorted(merged["benchmarks"]))
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
