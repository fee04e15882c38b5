"""Warm-instance strategies: deterministic picks over idle snapshots."""

import pytest

from repro.errors import ConfigError
from repro.warmpool.strategy import (
    AffinityStrategy,
    LCSStrategy,
    MRUStrategy,
    STRATEGIES,
    WarmEndpoint,
    make_strategy,
)


def ep(name, idle_since, last_model=None):
    return WarmEndpoint(
        name=name, idle_since=idle_since, launched_at=0.0, last_model=last_model
    )


def test_empty_candidates_select_nothing():
    for name in STRATEGIES:
        assert make_strategy(name).select((), "m0", now=10.0) is None


def test_lcs_reuses_the_oldest_idle():
    pool = (ep("a", 5.0), ep("b", 1.0), ep("c", 3.0))
    assert LCSStrategy().select(pool, "m0", now=10.0).name == "b"


def test_mru_reuses_the_newest_idle():
    pool = (ep("a", 5.0), ep("b", 1.0), ep("c", 3.0))
    assert MRUStrategy().select(pool, "m0", now=10.0).name == "a"


def test_ties_break_on_name_for_both_orders():
    # same idle_since everywhere: both strategies must pick the
    # lexicographically first name, so replays are deterministic
    pool = (ep("z", 2.0), ep("a", 2.0), ep("m", 2.0))
    assert LCSStrategy().select(pool, "m0", now=10.0).name == "a"
    assert MRUStrategy().select(pool, "m0", now=10.0).name == "a"


def test_affinity_prefers_the_models_warm_subpool():
    pool = (
        ep("cold-runtime", 0.0, last_model="m1"),
        ep("hot-old", 1.0, last_model="m0"),
        ep("hot-new", 5.0, last_model="m0"),
    )
    choice = AffinityStrategy().select(pool, "m0", now=10.0)
    # affine sub-pool first, LCS (oldest-idle) within it
    assert choice.name == "hot-old"


def test_affinity_spends_used_before_fresh():
    # a fresh pre-warmed endpoint (last_model None) is kept in reserve:
    # switching a used endpoint's runtime costs the same, and the fresh
    # one stays free for the model the predictor launched it for
    pool = (ep("fresh", 0.0, last_model=None), ep("used", 5.0, last_model="m1"))
    assert AffinityStrategy().select(pool, "m0", now=10.0).name == "used"
    # only fresh endpoints left: use one
    pool = (ep("fresh", 0.0, last_model=None),)
    assert AffinityStrategy().select(pool, "m0", now=10.0).name == "fresh"


def test_affinity_base_strategy_orders_the_subpool():
    pool = (ep("old", 1.0, last_model="m0"), ep("new", 5.0, last_model="m0"))
    mru_affinity = make_strategy("affinity", base="mru")
    assert mru_affinity.select(pool, "m0", now=10.0).name == "new"


def test_make_strategy_rejects_unknown_names():
    with pytest.raises(ConfigError):
        make_strategy("fifo")
    with pytest.raises(ConfigError):
        make_strategy("affinity", base="affinity")
