"""Action specs and invocation records."""

import pytest

from repro.errors import ConfigError
from repro.serverless.action import (
    MEMORY_GRANULE,
    ActionSpec,
    InvocationResult,
    Request,
    round_memory_budget,
)


def test_round_memory_budget():
    assert round_memory_budget(1) == MEMORY_GRANULE
    assert round_memory_budget(MEMORY_GRANULE) == MEMORY_GRANULE
    assert round_memory_budget(MEMORY_GRANULE + 1) == 2 * MEMORY_GRANULE


def test_round_memory_budget_rejects_nonpositive():
    with pytest.raises(ConfigError):
        round_memory_budget(0)


def test_spec_requires_granular_budget():
    with pytest.raises(ConfigError):
        ActionSpec(name="f", image="i", memory_budget=100)
    ActionSpec(name="f", image="i", memory_budget=MEMORY_GRANULE)


def test_spec_requires_positive_concurrency():
    with pytest.raises(ConfigError):
        ActionSpec(name="f", image="i", memory_budget=MEMORY_GRANULE, concurrency=0)


def test_requests_get_unique_ids():
    a = Request(model_id="m", user_id="u")
    b = Request(model_id="m", user_id="u")
    assert a.request_id != b.request_id


def test_invocation_result_latency():
    result = InvocationResult(
        request=Request(model_id="m", user_id="u"),
        response=None,
        kind="hot",
        container_id="c",
        node_id="n",
        submitted_at=10.0,
        started_at=11.0,
        finished_at=13.5,
    )
    assert result.latency == pytest.approx(3.5)
