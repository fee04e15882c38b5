"""The scale-to-zero janitor: exact expiry, the min_warm floor."""

import pytest

from repro.errors import ConfigError
from repro.warmpool.manager import WarmPoolConfig, WarmPoolManager


def fleet(keep_alive_s, min_warm, idle=(), busy=()):
    """A manager with ``idle`` ``(name, last_used)`` endpoints and ``busy`` ones."""
    manager = WarmPoolManager(
        WarmPoolConfig(keep_alive_s=keep_alive_s, min_warm=min_warm)
    )
    for name, last_used in idle:
        manager.on_launch(name, last_used)
    for name in busy:
        manager.on_launch(name, 0.0)
        manager.on_dispatch(name, "m0", 0.0)
    return manager


def test_policy_validates():
    with pytest.raises(ConfigError):
        WarmPoolConfig(keep_alive_s=-1.0)
    with pytest.raises(ConfigError):
        WarmPoolConfig(min_warm=-1)


def test_sweep_retires_idle_past_keep_alive_oldest_first():
    manager = fleet(30.0, 0, idle=[("young", 80.0), ("old", 10.0), ("mid", 50.0)])
    # at t=100: old idle 90s, mid idle 50s, young idle 20s (survives)
    assert manager.sweep(100.0) == ["old", "mid"]
    assert manager.expiry("young") == 110.0


def test_min_warm_floor_counts_the_whole_fleet():
    # two idle + two busy endpoints: the busy pair already covers the
    # floor, so both idle ones are retirable
    manager = fleet(0.0, 2, idle=[("a", 0.0), ("b", 0.0)], busy=["c", "d"])
    assert manager.sweep(100.0) == ["a", "b"]
    # fleet of exactly min_warm: nothing retirable however idle
    manager = fleet(0.0, 2, idle=[("a", 0.0), ("b", 0.0)])
    assert manager.sweep(200.0) == []


def test_zero_keep_alive_retires_on_the_first_sweep():
    manager = fleet(0.0, 0, idle=[("a", 5.0)])
    assert manager.expiry("a") == 5.0
    assert manager.sweep(5.0) == ["a"]


def test_sweep_counter_tracks_every_sweep():
    manager = fleet(30.0, 1)
    for t in (0.0, 1.0, 2.0):
        manager.sweep(t)
    assert manager.stats(2.0)["janitor_sweeps"] == 3
