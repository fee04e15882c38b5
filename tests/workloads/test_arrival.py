"""Arrival processes: rates, phases, sessions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.workloads.arrival import (
    Session,
    fixed_rate,
    merge_arrivals,
    mmpp,
    poisson,
)


def test_fixed_rate_count_and_spacing():
    arrivals = fixed_rate(10.0, 5.0, "m")
    assert len(arrivals) == 50
    gaps = np.diff([a.time for a in arrivals])
    assert np.allclose(gaps, 0.1)


def test_fixed_rate_validation():
    with pytest.raises(ConfigError):
        fixed_rate(0.0, 1.0, "m")


def test_poisson_mean_rate():
    rng = np.random.default_rng(0)
    arrivals = poisson(20.0, 200.0, "m", rng=rng)
    assert len(arrivals) == pytest.approx(4000, rel=0.1)
    assert all(0 <= a.time < 200.0 for a in arrivals)


def test_poisson_deterministic_with_seeded_rng():
    a = poisson(5.0, 50.0, "m", rng=np.random.default_rng(7))
    b = poisson(5.0, 50.0, "m", rng=np.random.default_rng(7))
    assert [x.time for x in a] == [x.time for x in b]


def test_mmpp_alternates_rates():
    rng = np.random.default_rng(1)
    arrivals = mmpp((10.0, 40.0), phase_s=50.0, duration_s=200.0, model_id="m", rng=rng)
    def count(lo, hi):
        return sum(1 for a in arrivals if lo <= a.time < hi)
    # Odd phases run at 4x the rate of even phases.
    assert count(50, 100) > 2 * count(0, 50)
    assert count(150, 200) > 2 * count(100, 150)


def test_mmpp_respects_duration():
    arrivals = mmpp((5.0,), phase_s=60.0, duration_s=100.0, model_id="m")
    assert max(a.time for a in arrivals) < 100.0


def test_poisson_validation():
    for rate in (0.0, -1.0, math.inf, math.nan):  # inf once never returned
        with pytest.raises(ConfigError):
            poisson(rate, 1.0, "m")


def test_mmpp_validation():
    with pytest.raises(ConfigError):
        mmpp((), phase_s=10.0, duration_s=10.0, model_id="m")
    with pytest.raises(ConfigError):  # once never returned
        mmpp((20.0, 40.0), 0.0, 60.0, "m")
    for rates in ((20.0, 0.0), (20.0, -1.0), (math.inf,), (math.nan,)):
        with pytest.raises(ConfigError):  # (20, 0) once divided by zero
            mmpp(rates, 10.0, 60.0, "m")


def test_session_validation():
    with pytest.raises(ConfigError):
        Session(start_time=0.0, models=())
    session = Session(start_time=5.0, models=("a", "b"))
    assert session.models == ("a", "b")


def test_merge_arrivals_sorted():
    a = fixed_rate(1.0, 5.0, "a")
    b = poisson(2.0, 5.0, "b", rng=np.random.default_rng(3))
    merged = merge_arrivals(a, b)
    times = [x.time for x in merged]
    assert times == sorted(times)
    assert len(merged) == len(a) + len(b)


@settings(max_examples=20, deadline=None)
@given(rate=st.floats(0.5, 50.0), duration=st.floats(1.0, 30.0))
def test_fixed_rate_property(rate, duration):
    arrivals = fixed_rate(rate, duration, "m")
    assert len(arrivals) == int(duration * rate)
    assert all(a.time < duration for a in arrivals)
