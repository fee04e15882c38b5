"""The experiment-internal workload constructions (ramps, MMPP phases)."""

import numpy as np
import pytest

from repro.experiments import fig12, fig13
from repro.workloads.arrival import Arrival, merge_arrivals, mmpp, poisson


def test_fig12_ramp_precedes_steady():
    arrivals, measure_from, duration = fig12._ramped_arrivals(rate=20.0)
    times = [a.time for a in arrivals]
    assert times == sorted(times)
    ramp_span = len(fig12.RAMP_STEPS) * fig12.RAMP_STEP_S
    # Ramp phases run at fractions of the target rate.
    ramp = [t for t in times if t < ramp_span]
    steady = [t for t in times if t >= ramp_span]
    ramp_rate = len(ramp) / ramp_span
    steady_rate = len(steady) / fig12.STEADY_S
    assert steady_rate == pytest.approx(20.0, rel=0.05)
    assert ramp_rate < steady_rate
    assert measure_from == duration - fig12.MEASURE_S


def test_fig12_ramp_handles_low_rates():
    arrivals, measure_from, duration = fig12._ramped_arrivals(rate=1.0)
    assert arrivals, "even a 1 rps sweep needs warmup traffic"
    assert duration > measure_from > 0


def test_fig13_trace_is_warmup_then_shifted_mmpp():
    """Warm-up first, main stream shifted past it -- one RNG, seed 11."""
    rng = np.random.default_rng(11)
    warm = poisson(20.0, 60.0, "m", user_id="u", rng=rng)
    main = mmpp((20.0, 40.0), 60.0, 60.0, "m", user_id="u", rng=rng)
    shifted = [Arrival(a.time + 60.0, a.model_id, a.user_id) for a in main]
    assert fig13.mmpp_trace(60.0) == merge_arrivals(warm, shifted)
    # the warm-pool sweep's variant: its own seed, warm-up and model id
    rng = np.random.default_rng(5)
    warm = poisson(20.0, 30.0, "m0", user_id="u", rng=rng)
    main = mmpp((20.0, 40.0), 60.0, 60.0, "m0", user_id="u", rng=rng)
    shifted = [Arrival(a.time + 30.0, a.model_id, a.user_id) for a in main]
    assert fig13.mmpp_trace(60.0, warmup_s=30.0, seed=5, model_id="m0") == (
        merge_arrivals(warm, shifted)
    )


def test_fig13_mmpp_has_warmup_then_bursts():
    # the trace Figures 13 and 14 both serve
    arrivals = fig13.mmpp_trace(120.0)
    warmup_s, phase_s = fig13.WARMUP_S, 60.0
    times = [a.time for a in arrivals]
    assert times == sorted(times)

    def rate(lo, hi):
        return sum(1 for t in times if lo <= t < hi) / (hi - lo)

    # Warm-up phase at ~20 rps.
    assert rate(0, warmup_s) == pytest.approx(20.0, rel=0.25)
    # The second MMPP phase doubles the mean rate.
    phase1 = rate(warmup_s, warmup_s + phase_s)
    phase2 = rate(warmup_s + phase_s, warmup_s + 2 * phase_s)
    assert phase2 > 1.4 * phase1


def test_fig13_budgets_match_paper():
    assert fig13.FIG14_BUDGETS_MB == {
        ("DSNET", 1): 256,
        ("DSNET", 4): 384,
        ("RSNET", 1): 768,
        ("RSNET", 4): 1536,
    }
