"""EWMA rate estimation and the Little's-law warm-fleet target."""

import pytest

from repro.errors import ConfigError
from repro.warmpool.predictor import EwmaRate, PredictorPolicy, Prewarmer


def test_policy_validates():
    with pytest.raises(ConfigError):
        PredictorPolicy(alpha=0.0)
    with pytest.raises(ConfigError):
        PredictorPolicy(alpha=1.5)
    with pytest.raises(ConfigError):
        PredictorPolicy(service_time_s=0.0)
    with pytest.raises(ConfigError):
        PredictorPolicy(slots_per_endpoint=0)
    with pytest.raises(ConfigError):
        PredictorPolicy(headroom=0.0)
    with pytest.raises(ConfigError):
        PredictorPolicy(min_samples=0)
    with pytest.raises(ConfigError):
        PredictorPolicy(floor_concurrency=-0.1)


def test_rate_is_zero_before_two_arrivals():
    estimator = EwmaRate(alpha=0.3)
    assert estimator.rate(0.0) == 0.0
    estimator.observe(0.0)
    assert estimator.rate(0.0) == 0.0  # one arrival: no gap yet


def test_steady_stream_converges_to_its_rate():
    estimator = EwmaRate(alpha=0.3)
    for i in range(20):
        estimator.observe(i * 0.5)  # 2 arrivals/s
    assert estimator.rate(9.5) == pytest.approx(2.0)


def test_rate_decays_while_the_stream_is_quiet():
    estimator = EwmaRate(alpha=0.3)
    for i in range(20):
        estimator.observe(i * 0.5)
    at_peak = estimator.rate(9.5)
    # 100 quiet seconds: the current gap dominates the learned interval
    assert estimator.rate(109.5) == pytest.approx(0.01)
    assert estimator.rate(109.5) < at_peak


def test_rates_hides_models_below_min_samples():
    prewarmer = Prewarmer(PredictorPolicy(min_samples=2))
    prewarmer.on_dispatch("m0", 0.0)
    assert prewarmer.rates(1.0) == {}
    prewarmer.on_dispatch("m0", 1.0)
    assert "m0" in prewarmer.rates(1.0)


def test_desired_warm_applies_littles_law():
    policy = PredictorPolicy(
        service_time_s=1.0, headroom=1.0, slots_per_endpoint=1, min_samples=2
    )
    prewarmer = Prewarmer(policy)
    for i in range(40):
        prewarmer.on_dispatch("m0", i * 0.25)  # 4 arrivals/s
    # rate 4/s x 1s service = concurrency 4 -> 4 endpoints
    assert prewarmer.desired_warm(39 * 0.25) == 4


def test_desired_warm_decays_to_zero_when_quiet():
    # floor_concurrency turns a ceil-to-1-forever tail into true
    # scale-to-zero once the predicted concurrency is negligible
    policy = PredictorPolicy(service_time_s=0.1, headroom=1.0)
    prewarmer = Prewarmer(policy)
    for i in range(20):
        prewarmer.on_dispatch("m0", i * 0.1)  # 10/s x 0.1s = 1 slot busy
    assert prewarmer.desired_warm(1.9) >= 1
    assert prewarmer.desired_warm(1.9 + 3600.0) == 0


def test_measured_service_time_overrides_the_seed():
    prewarmer = Prewarmer(PredictorPolicy(service_time_s=0.5))
    assert prewarmer.service_time_s == 0.5
    prewarmer.on_service_time(2.0)
    assert prewarmer.service_time_s == 2.0
    prewarmer.on_service_time(-1.0)  # ignored
    assert prewarmer.service_time_s == 2.0
