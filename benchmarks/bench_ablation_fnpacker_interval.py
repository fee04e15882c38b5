"""Ablation: sensitivity of FnPacker to its exclusivity idle interval.

DESIGN.md section 7.  FnPacker reclaims an exclusive endpoint for other
models after `idle_interval_s` of quiet.  Too small and the popular
models lose their endpoints to session traffic (interference returns);
too large and the session models cannot pack onto warm endpoints.  The
paper fixes a single interval; this ablation sweeps it.
"""

from repro.experiments.table34 import run_strategy

INTERVALS = (1.0, 10.0, 60.0)


def test_ablation_fnpacker_interval():
    def sweep():
        return {
            interval: run_strategy(
                "FnPacker", duration_s=480.0, idle_interval_s=interval
            )
            for interval in INTERVALS
        }

    results = sweep()
    print()
    print("Ablation -- FnPacker idle interval (TVM-RSNET pool)")
    print(f"{'interval':>9s} {'poisson avg (ms)':>17s} {'session m3 (ms)':>16s} {'colds':>6s}")
    for interval, data in results.items():
        m3 = data["sessions"].get("1:m3")
        print(
            f"{interval:9.0f} {data['poisson']['mean_s'] * 1000:17.1f} "
            f"{(m3 or 0) * 1000:16.0f} {data['cold_starts']:6d}"
        )
    # The mid-range interval must keep the popular models un-interfered.
    baseline = results[10.0]["poisson"]["mean_s"]
    assert results[60.0]["poisson"]["mean_s"] < baseline * 1.5
    # Packing still works at 10s: m3 rides a warm endpoint in session 1.
    assert results[10.0]["sessions"]["1:m3"] < 3.0
