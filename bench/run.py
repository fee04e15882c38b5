"""The repo's benchmark: four unpaced workloads against the live functional twin.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]

Without ``--workload`` all four workloads run, each in a fresh
interpreter; with ``--trace`` the traced per-layer run follows each
end-to-end run.  Every metric is printed by name with its unit and
sample count, results go to ``DIR/results.json`` (spans to
``DIR/trace-<workload>.json``), and the last line of standard output is
one JSON object.  The exit code is non-zero if any operation failed or
returned a wrong output.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
#: set-ups per end-to-end run; ``setup_s`` is their median
SETUPS = 3


def spec() -> dict:
    """The committed ``BENCHMARK.json``: workloads, metric names, units, bounds."""
    with open(REPO / "BENCHMARK.json") as fh:
        return json.load(fh)


def fingerprint() -> dict:
    """What the numbers were measured on (they are machine-dependent)."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def spawn(workload: str, mode: str, args) -> dict:
    """Run one worker to completion; returns the JSON object it printed last."""
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--mode", mode,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--out", str(args.out), "--spawned-at", repr(time.time()),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=REPO)
    if done.returncode != 0:
        sys.exit(f"bench: {workload} ({mode}) worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, trace: bool, args, names) -> dict:
    """One run of one workload: its result row, checked against ``names``."""
    started = time.perf_counter()
    if trace:
        row = spawn(workload, "trace", args)
    else:
        rows = [spawn(workload, "setup", args) for _ in range(SETUPS - 1)]
        row = spawn(workload, "e2e", args)
        rows.append(row)
        for name, into in (("setup_s", row["metrics"]), ("raw.setup_s", row["info"])):
            into[name] = {
                "value": statistics.median(r[name] for r in rows), "unit": "s", "samples": SETUPS,
            }
    for name in ("setup_s", "raw.setup_s"):
        row.pop(name)
    if set(row["metrics"]) != set(names):
        sys.exit(f"bench: {workload} emitted {sorted(set(row['metrics']) ^ set(names))} "
                 "differently from BENCHMARK.json")
    row["metrics"] = {name: row["metrics"][name] for name in names}
    row["correct"] = row["failed"] == 0
    row["wall_s"] = time.perf_counter() - started
    return row


def show(workload: str, row: dict) -> None:
    """Print one result row, every metric by name with unit and sample count."""
    print(f"== {workload}: attempted {row['attempted']}, ok {row['attempted'] - row['failed']}, "
          f"failed {row['failed']}, wall {row['wall_s']:.1f} s")
    if "first_failure" in row:
        print(f"   first failure: {row['first_failure']}")
    for name, metric in row["metrics"].items():
        print(f"   {name:<36} {metric['value']:>14.4f} {metric['unit']:<6} n={metric['samples']}")
    for name, metric in row.get("info", {}).items():
        print(f"   {name:<36} {metric['value']:>14.4f} {metric['unit']:<6} n={metric['samples']}"
              "  (reported, not bounded)")


def last_line(rows) -> str:
    """The driver-facing summary of ``rows`` (one row in single-workload mode)."""
    metrics = {}
    if len(rows) == 1:
        metrics = {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in rows[0]["metrics"].items()
        }
    return json.dumps({
        "correct": all(row["correct"] for row in rows),
        "attempted": sum(row["attempted"] for row in rows),
        "failed": sum(row["failed"] for row in rows),
        "metrics": metrics,
    })


def main() -> None:
    benchmark = spec()
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=BENCH / "out")
    args = parser.parse_args()
    if not (REPO / "src" / "repro").is_dir():
        sys.exit("bench: src/repro not found; run from a checkout of the repository")
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)

    e2e_names = [m["name"] for m in benchmark["end_to_end"]]
    layer_names = [m["name"] for m in benchmark["per_layer"]]
    started = time.perf_counter()
    results, rows = {}, []
    for workload in [args.workload] if args.workload else workloads:
        entry = results[workload] = {}
        if not (args.workload and args.trace):
            entry["end_to_end"] = measure(workload, False, args, e2e_names)
            show(workload, entry["end_to_end"])
        if args.trace:
            entry["per_layer"] = measure(workload, True, args, layer_names)
            show(workload + " (traced)", entry["per_layer"])
        rows.extend(entry.values())
    total = time.perf_counter() - started
    print(f"total wall {total:.1f} s")
    with open(args.out / "results.json", "w") as fh:
        json.dump({
            "fingerprint": fingerprint(), "seed": args.seed, "seconds": args.seconds,
            "total_wall_s": total, "workloads": results,
        }, fh, indent=1)
    print(last_line(rows))
    if any(not row["correct"] for row in rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
