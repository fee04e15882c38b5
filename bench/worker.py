"""One workload, one mode, in a fresh interpreter (spawned by ``run.py``).

Modes: ``setup`` performs the workload's set-up and reports how long it
took since the parent spawned this process, as measured and at reference
machine speed (``calibrate.py``); ``e2e`` adds the unpaced closed loop
with the benchmark's own spans off; ``trace`` runs a short
untraced loop, the same operations again through their public steps
under benchmark-side spans, and the stand-alone layer probes.  Hosts,
gateway and service are closed before the process exits, so tracer
growth, GC state and RSS cannot leak into the next workload.  The last
line on standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402
from stats import Op, end_to_end, p50, split, window_rates  # noqa: E402

perf = time.perf_counter
#: the traced run counts a longer ``--seconds`` as this: it times layers one
#: call at a time, so run length buys it no steadiness, only wall time
TRACE_SECONDS = 10.0


def pin_to_one_cpu() -> None:
    """Keep every thread of this process on one CPU.

    The twin is GIL-bound, so a second core adds no capacity, only a
    run-long coin toss: when the OS places a TCS worker and its consumer
    on different cores they fight over the GIL in 5 ms switch intervals
    and the same code measures up to 3x slower (bench/README.md).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def rss_kb() -> float:
    """Resident set size of this process in KiB."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1024


def check(workload, ops) -> dict:
    """Compare every output with its reference, off the clock."""
    bad = [op for op in ops if op.error is not None or not workload.correct(op)]
    result = {"attempted": len(ops), "failed": len(bad)}
    if bad:
        result["first_failure"] = bad[0].error or f"wrong output for input {bad[0].key}"
    return result


def run_e2e(workload, seconds: float) -> dict:
    windows = workload.run(seconds)
    ops = [op for window in windows for op in window.ops]
    metrics, reported = end_to_end(windows)
    return {**check(workload, ops), "metrics": metrics, "info": reported}


def run_trace(workload, args) -> dict:
    from probes import Probes
    from spans import Recorder

    seconds = min(args.seconds, TRACE_SECONDS)
    scale = seconds / TRACE_SECONDS
    rss_before = rss_kb()
    started = perf()
    plain = workload.run_serial(0.4 * seconds)
    rss_after = rss_kb()

    rec = Recorder()

    def traced(i: int) -> Op:
        rec.op = i
        return workload.traced_op(i, rec)

    spanned = workload.run_serial(0.3 * seconds, op=traced, limit=max(3, int(300 * scale)))
    result = check(workload, plain + spanned)
    workload.close()

    def op_p50(ops) -> float:
        return p50([op.t1 - op.t0 for op in ops])

    probes = Probes(args.seed, scale)
    metrics = probes.run()
    windows = split(plain, started)
    rates = window_rates(windows)
    probes.count(
        "bench.trace_overhead_ratio", op_p50(spanned) / op_p50(plain), "ratio", len(spanned)
    )
    third = max(1, len(rates) // 3)
    probes.count(
        "obs.throughput_decay", sum(rates[-third:]) / sum(rates[:third]), "ratio", len(plain)
    )
    probes.count(
        "obs.rss_growth_kb_per_op", (rss_after - rss_before) / len(plain), "kB", len(plain)
    )
    reported = end_to_end(windows)[1]
    for name in ("latency_p95_ms", "output_gap_p95_ms"):
        metrics["tail." + name] = reported[name]

    extra = {"workload": workload.name, "seed": args.seed, **probes.notes}
    rec.dump(Path(args.out) / f"trace-{workload.name}.json", **extra)
    return {**result, "metrics": metrics, "notes": extra}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "e2e", "trace"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    pin_to_one_cpu()
    before = calibrate.samples()  # set-up is one window: a calibration point on each side

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        slowdown = calibrate.slowdown(before + calibrate.samples())
        setup_s = time.time() - args.spawned_at
        result = {"raw.setup_s": setup_s, "setup_s": setup_s / slowdown}
        if args.mode == "e2e":
            result.update(run_e2e(workload, args.seconds))
        elif args.mode == "trace":
            result.update(run_trace(workload, args))
    finally:
        workload.close()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
