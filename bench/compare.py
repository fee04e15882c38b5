"""Compare two result sets of ``bench/run.py`` against the benchmark's bounds.

    python3 bench/compare.py A/results.json B/results.json

For every workload row and end-to-end metric: the base value (A), the
new value (B), the ratio B/A, by what share of A the metric got worse
(negative when it improved), and whether that stays inside the bound
fixed in ``BENCHMARK.json``.  Exits 1 when any metric is outside its
bound or any operation failed.
"""

from __future__ import annotations

import json
import sys

from run import spec


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def compare(base: dict, new: dict, metrics: list) -> list:
    """One row per (workload, end-to-end metric) present in both sets."""
    rows = []
    for workload, entry in base["workloads"].items():
        a = entry.get("end_to_end")
        b = new["workloads"].get(workload, {}).get("end_to_end")
        if a is None or b is None:
            continue
        for metric in metrics:
            name = metric["name"]
            old, cur = a["metrics"][name]["value"], b["metrics"][name]["value"]
            worse = (cur - old) / old if metric["better"] == "lower" else (old - cur) / old
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "base": old, "new": cur, "ratio": cur / old, "worse_by": worse,
                "bound": metric["bound"], "inside": worse <= metric["bound"],
            })
    return rows


def main() -> None:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    rows = compare(base, new, spec()["end_to_end"])
    print(f"base {sys.argv[1]} (seed {base['seed']})  new {sys.argv[2]} (seed {new['seed']})")
    print(f"{'workload':<14} {'metric':<20} {'base':>12} {'new':>12} {'unit':<5} "
          f"{'new/base':>9} {'worse by':>9} {'bound':>6}  verdict")
    for row in rows:
        verdict = "inside" if row["inside"] else "OUTSIDE"
        print(f"{row['workload']:<14} {row['metric']:<20} {row['base']:>12.4f} {row['new']:>12.4f} "
              f"{row['unit']:<5} {row['ratio']:>9.3f} {row['worse_by']:>+9.1%} {row['bound']:>6.0%}  {verdict}")
    failed = sum(
        entry["end_to_end"]["failed"]
        for result in (base, new)
        for entry in result["workloads"].values()
        if "end_to_end" in entry
    )
    print(f"failed operations: {failed}")
    if failed or not all(row["inside"] for row in rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
