"""Warm-endpoint reuse orders: deterministic ``suggest`` picks over idle endpoints."""

import pytest

from repro.errors import ConfigError
from repro.warmpool.manager import STRATEGIES, WarmPoolConfig, WarmPoolManager


def pool(strategy, *idle):
    """A manager holding ``idle`` ``(name, last_used)`` endpoints, launched in order."""
    manager = WarmPoolManager(WarmPoolConfig(strategy=strategy))
    for name, last_used in idle:
        manager.on_launch(name, last_used)
    return manager


def test_empty_candidates_select_nothing():
    for name in STRATEGIES:
        assert pool(name).suggest("m0", now=10.0) is None


def test_lcs_reuses_the_oldest_idle():
    manager = pool("lcs", ("a", 5.0), ("b", 1.0), ("c", 3.0))
    assert manager.suggest("m0", now=10.0) == "b"


def test_mru_reuses_the_newest_idle():
    manager = pool("mru", ("a", 5.0), ("b", 1.0), ("c", 3.0))
    assert manager.suggest("m0", now=10.0) == "a"


def test_ties_break_on_launch_order_for_both_orders():
    # same last use everywhere: both orders pick the endpoint launched
    # first, whatever its name sorts as ("container-10" < "container-9")
    for strategy in STRATEGIES:
        manager = pool(
            strategy,
            ("container-9", 2.0), ("container-10", 2.0), ("container-11", 2.0),
        )
        assert manager.suggest("m0", now=10.0) == "container-9"


def test_make_strategy_rejects_unknown_names():
    # names are checked where the config is built; ``affinity`` is not an order
    for name in ("fifo", "affinity"):
        with pytest.raises(ConfigError):
            WarmPoolConfig(strategy=name)
