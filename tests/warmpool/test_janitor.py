"""The scale-to-zero janitor: exact expiry, the min_warm floor."""

import pytest

from repro.errors import ConfigError
from repro.warmpool.janitor import Janitor, JanitorPolicy
from repro.warmpool.strategy import WarmEndpoint


def ep(name, last_used, seq=0):
    return WarmEndpoint(name=name, last_used=last_used, seq=seq)


def test_policy_validates():
    with pytest.raises(ConfigError):
        JanitorPolicy(keep_alive_s=-1.0)
    with pytest.raises(ConfigError):
        JanitorPolicy(min_warm=-1)


def test_sweep_retires_idle_past_keep_alive_oldest_first():
    janitor = Janitor(JanitorPolicy(keep_alive_s=30.0, min_warm=0))
    idle = [ep("young", 80.0), ep("old", 10.0), ep("mid", 50.0)]
    # at t=100: old idle 90s, mid idle 50s, young idle 20s (survives)
    assert janitor.sweep(100.0, idle, fleet_size=3) == ["old", "mid"]


def test_min_warm_floor_counts_the_whole_fleet():
    janitor = Janitor(JanitorPolicy(keep_alive_s=0.0, min_warm=2))
    idle = [ep("a", 0.0), ep("b", 0.0)]
    # two idle + two busy endpoints: the busy pair already covers the
    # floor, so both idle ones are retirable
    assert janitor.sweep(100.0, idle, fleet_size=4) == ["a", "b"]
    # fleet of exactly min_warm: nothing retirable however idle
    assert janitor.sweep(200.0, idle, fleet_size=2) == []


def test_zero_keep_alive_retires_on_the_first_sweep():
    janitor = Janitor(JanitorPolicy(keep_alive_s=0.0, min_warm=0))
    assert janitor.sweep(5.0, [ep("a", 5.0)], fleet_size=1) == ["a"]


def test_sweep_counter_tracks_every_sweep():
    janitor = Janitor(JanitorPolicy())
    for t in (0.0, 1.0, 2.0):
        janitor.sweep(t, [], fleet_size=0)
    assert janitor.sweeps == 3
