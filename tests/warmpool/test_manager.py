"""WarmPoolManager: classification, pooling, sweeps, pre-warm sizing."""

import pytest

from repro.errors import ConfigError
from repro.warmpool.manager import WarmPoolConfig, WarmPoolManager


def make_manager(**kwargs):
    return WarmPoolManager(WarmPoolConfig(**kwargs))


def test_config_validates():
    with pytest.raises(ConfigError):
        WarmPoolConfig(max_endpoints=0)
    with pytest.raises(ConfigError):
        WarmPoolConfig(min_warm=9, max_endpoints=8)
    with pytest.raises(ConfigError):
        WarmPoolConfig(log_capacity=0)
    with pytest.raises(ConfigError):
        WarmPoolConfig(strategy="fifo")


def test_dispatch_temperatures_cold_then_hot_then_warm():
    manager = make_manager()
    manager.on_launch("ep0", 0.0, cold_start_s=1.5)
    assert manager.on_dispatch("ep0", "m0", 0.0, launched=True) == "cold"
    manager.on_complete("ep0", "m0", 1.0)
    # same model on a live runtime: hot
    assert manager.on_dispatch("ep0", "m0", 2.0) == "hot"
    manager.on_complete("ep0", "m0", 3.0)
    # model switch on a live runtime: warm
    assert manager.on_dispatch("ep0", "m1", 4.0) == "warm"
    manager.on_complete("ep0", "m1", 5.0)
    counters = manager.counters()
    assert (counters["cold"], counters["warm"], counters["hot"]) == (1, 1, 1)
    assert manager.cold_start_ratio() == pytest.approx(1 / 3)


def test_dispatch_auto_registers_unknown_endpoints():
    manager = make_manager()
    assert manager.on_dispatch("stray", "m0", 1.0) == "warm"
    assert manager.fleet_size == 1


def test_suggest_skips_busy_endpoints():
    manager = make_manager()
    manager.on_launch("ep0", 0.0)
    manager.on_launch("ep1", 1.0)
    manager.on_dispatch("ep0", "m0", 2.0)  # ep0 now busy
    assert manager.suggest("m0", 3.0) == "ep1"
    manager.on_dispatch("ep1", "m0", 3.0)
    assert manager.suggest("m0", 4.0) is None


def test_failure_releases_the_slot_without_a_service_sample():
    manager = make_manager(predictive=True)
    manager.on_launch("ep0", 0.0)
    manager.on_dispatch("ep0", "m0", 1.0)
    manager.on_failure("ep0", "m0", 2.0)
    assert manager.suggest("m0", 3.0) == "ep0"  # idle again
    # a failed request must not pollute the measured service time
    assert manager.prewarmer.service_time_s == (
        manager.config.predictor.service_time_s
    )


def test_a_cold_dispatch_is_no_service_time_sample():
    # a launch is not service time: a Little's-law target sized on cold
    # latencies over-provisions exactly while cold starts happen
    manager = make_manager(predictive=True)
    manager.on_launch("ep0", 0.0)
    manager.on_dispatch("ep0", "m0", 0.0, launched=True)
    manager.on_complete("ep0", "m0", 4.0)
    assert manager.prewarmer.service_time_s == (
        manager.config.predictor.service_time_s
    )
    manager.on_dispatch("ep0", "m0", 5.0)
    manager.on_complete("ep0", "m0", 5.25)
    assert manager.prewarmer.service_time_s == pytest.approx(0.25)


def test_expiry_is_exact_and_only_for_idle_unpinned_endpoints():
    manager = make_manager(keep_alive_s=30.0, min_warm=0)
    manager.on_launch("ep0", 0.0)
    manager.on_launch("attached", 0.0, pinned=True)
    manager.on_dispatch("ep0", "m0", 1.0)
    assert manager.expiry("ep0") is None  # busy
    assert manager.expiry("attached") is None
    assert manager.expiry("ghost") is None
    idle_since = 112.5720304108054  # (idle_since + 30) - idle_since < 30
    manager.on_complete("ep0", "m0", idle_since)
    expiry = manager.expiry("ep0")
    assert expiry == idle_since + 30.0
    assert manager.sweep(expiry) == ["ep0"]


def test_a_busy_endpoint_with_a_free_slot_is_a_candidate():
    manager = make_manager(strategy="mru")
    manager.on_launch("old", 0.0, slots=4)
    manager.on_launch("busy", 0.0, slots=4)
    manager.on_dispatch("old", "m0", 1.0)
    manager.on_complete("old", "m0", 2.0)
    manager.on_dispatch("busy", "m0", 3.0)
    assert manager.suggest("m0", 4.0) == "busy"  # 3 of 4 slots free
    for t in (4.0, 4.1, 4.2):
        manager.on_dispatch("busy", "m0", t)
    assert manager.suggest("m0", 5.0) == "old"  # full now


def test_sweep_spares_pinned_and_busy_endpoints():
    manager = make_manager(keep_alive_s=0.0, min_warm=0)
    manager.on_launch("idle", 0.0)
    manager.on_launch("busy", 0.0)
    manager.on_launch("attached", 0.0, pinned=True)
    manager.on_dispatch("busy", "m0", 0.5)
    assert manager.sweep(100.0) == ["idle"]
    manager.on_retire("idle", 100.0)
    assert manager.counters()["janitor_retired"] == 1
    # unpinning makes the attached endpoint retirable after all
    manager.unpin("attached")
    assert manager.sweep(200.0) == ["attached"]


def test_prewarm_count_respects_floor_cap_and_live_fleet():
    manager = make_manager(predictive=True, min_warm=2, max_endpoints=3)
    # no traffic: the predictor wants 0 but min_warm floors it at 2
    assert manager.prewarm_count(0.0) == 2
    manager.on_launch("ep0", 0.0)
    assert manager.prewarm_count(1.0) == 1
    # heavy traffic: the Little's-law target is capped at max_endpoints
    for i in range(100):
        manager.on_dispatch("ep0", "m0", 1.0 + i * 0.01)
    assert manager.prewarm_count(2.0) == 2  # 3 cap - 1 live
    assert manager.prewarm_count(2.0) <= manager.config.max_endpoints


def test_prewarm_count_is_zero_without_the_predictor():
    manager = make_manager(predictive=False)
    assert manager.prewarm_count(0.0) == 0


def test_stats_reports_the_pool_shape():
    manager = make_manager(predictive=True)
    manager.on_launch("ep0", 0.0, cold_start_s=2.0, prewarmed=True)
    manager.on_dispatch("ep0", "m0", 1.0)
    manager.on_complete("ep0", "m0", 2.0)
    stats = manager.stats(now=5.0)
    assert stats["strategy"] == "lcs"
    assert stats["predictive"] is True
    ep0 = stats["endpoints"]["ep0"]
    assert ep0["idle_s"] == pytest.approx(3.0)
    assert ep0["prewarmed"] and ep0["dispatches"] == 1
    assert ep0["cold_start_s"] == pytest.approx(2.0)
    assert stats["counters"]["launches"] == 1
    assert stats["predicted_service_s"] == pytest.approx(1.0)


def test_decision_log_is_bounded():
    manager = make_manager(log_capacity=3)
    for i in range(10):
        manager.on_dispatch("ep0", "m0", float(i))
    log = manager.decision_log()
    assert len(log) == 3
    assert "t=9.000000" in log[-1]
