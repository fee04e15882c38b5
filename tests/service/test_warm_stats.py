"""The warm pool surfaces through the live service's /v1/stats."""

import pytest

from repro.warmpool.manager import WarmPoolConfig

from tests.service.conftest import launch_world


@pytest.fixture(scope="module")
def world():
    w = launch_world(
        warm_pool=WarmPoolConfig(strategy="lcs", keep_alive_s=60.0, min_warm=1)
    )
    yield w
    w.close()


def test_stats_carry_the_warm_pool_section(world):
    world.session.infer(world.x)
    stats = world.remote.stats()
    warm = stats["warm_pool"]
    assert warm["strategy"] == "lcs"
    assert warm["keep_alive_s"] == 60.0
    assert warm["min_warm"] == 1
    counters = warm["counters"]
    assert counters["cold"] + counters["warm"] + counters["hot"] >= 1
    assert counters["launches"] >= 1
    assert len(warm["endpoints"]) == 1
