"""WarmPoolManager: classification, pooling, sweeps, stats and the log."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.warmpool import manager as manager_module
from repro.warmpool.manager import WarmPoolConfig, WarmPoolManager


def make_manager(**kwargs):
    return WarmPoolManager(WarmPoolConfig(**kwargs))


def test_config_validates():
    # three knobs, each checked where the config is built
    assert [f.name for f in dataclasses.fields(WarmPoolConfig)] == [
        "strategy", "keep_alive_s", "min_warm",
    ]
    with pytest.raises(ConfigError):
        WarmPoolConfig(strategy="fifo")
    with pytest.raises(ConfigError):
        WarmPoolConfig(keep_alive_s=-0.5)
    with pytest.raises(ConfigError):
        WarmPoolConfig(min_warm=-1)


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
    assert manager.stats(5.0)["cold_start_ratio"] == pytest.approx(1 / 3)


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
    manager = make_manager(keep_alive_s=30.0)
    manager.on_launch("ep0", 0.0)
    manager.on_dispatch("ep0", "m0", 1.0)
    manager.on_failure("ep0", "m0", 2.0)
    assert manager.suggest("m0", 3.0) == "ep0"  # idle again
    assert manager.expiry("ep0") == 32.0  # idle since the failure


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
    # pinning lasts: the attached endpoint is never nominated
    assert manager.sweep(200.0) == []


def test_stats_reports_the_pool_shape():
    manager = make_manager()
    manager.on_launch("ep0", 0.0, cold_start_s=2.0)
    manager.on_dispatch("ep0", "m0", 1.0)
    manager.on_complete("ep0", "m0", 2.0)
    manager.sweep(3.0)
    stats = manager.stats(now=5.0)
    assert sorted(stats) == [
        "cold_start_ratio", "counters", "endpoints", "janitor_sweeps",
        "keep_alive_s", "min_warm", "strategy",
    ]
    assert stats["strategy"] == "lcs" and stats["janitor_sweeps"] == 1
    ep0 = stats["endpoints"]["ep0"]
    assert sorted(ep0) == [
        "cold_start_s", "dispatches", "idle_s", "in_flight", "last_model", "pinned",
    ]
    assert ep0["idle_s"] == pytest.approx(3.0)
    assert ep0["dispatches"] == 1 and ep0["last_model"] == "m0"
    assert ep0["cold_start_s"] == pytest.approx(2.0)
    assert stats["counters"] == {
        "cold": 0, "warm": 1, "hot": 0,
        "launches": 1, "janitor_retired": 0, "retired": 0,
    }


def test_decision_log_is_bounded(monkeypatch):
    monkeypatch.setattr(manager_module, "LOG_ROWS", 3)
    manager = make_manager()
    for i in range(10):
        manager.on_dispatch("ep0", "m0", float(i))
    log = manager.decision_log()
    assert len(log) == 3
    assert "t=9.000000" in log[-1]
