"""FnPacker routing logic and the One-to-one / All-in-one baselines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, RoutingError
from repro.routing import (
    AllInOneRouter,
    FnPackerRouter,
    FnPool,
    OneToOneRouter,
)

MODELS = ("m0", "m1", "m2")


def make_pool(**kwargs):
    return FnPool(name="pool", models=MODELS, memory_budget=256, **kwargs)


def test_pool_validation():
    with pytest.raises(ConfigError):
        FnPool(name="p", models=(), memory_budget=1)
    with pytest.raises(ConfigError):
        FnPool(name="p", models=("a", "a"), memory_budget=1)


def test_pool_default_endpoint_count():
    assert make_pool().endpoint_count == len(MODELS)
    assert make_pool(num_endpoints=2).endpoint_count == 2


def test_fnpacker_deploys_shared_endpoints():
    router = FnPackerRouter(make_pool())
    endpoints = router.endpoints()
    assert len(endpoints) == 3
    for _, servable in endpoints:
        assert servable == MODELS


def test_unknown_model_rejected():
    router = FnPackerRouter(make_pool())
    with pytest.raises(RoutingError):
        router.route("ghost", now=0.0)


def test_pending_model_pins_endpoint():
    """Rule 1: a model with pending responses keeps its endpoint, exclusively."""
    router = FnPackerRouter(make_pool())
    ep = router.route("m0", now=0.0)
    router.on_dispatch(ep, "m0", now=0.0)
    assert router.route("m0", now=0.1) == ep
    assert router.exclusive_assignments()[ep] == "m0"


def test_other_model_avoids_exclusive_endpoint():
    router = FnPackerRouter(make_pool())
    ep0 = router.route("m0", now=0.0)
    router.on_dispatch(ep0, "m0", now=0.0)
    router.route("m0", now=0.1)  # marks exclusive
    ep1 = router.route("m1", now=0.2)
    assert ep1 != ep0


def test_idle_exclusive_endpoint_reclaimed():
    """Rule 2b: exclusivity lapses after the idle interval."""
    router = FnPackerRouter(make_pool(num_endpoints=1), idle_interval_s=5.0)
    only = router.endpoints()[0][0]
    router.on_dispatch(only, "m0", now=0.0)
    router.route("m0", now=0.1)
    router.on_complete(only, "m0", now=1.0)
    # Before the interval another model falls back to least-pending.
    assert router.route("m1", now=2.0) == only  # fallback (single endpoint)
    # After the interval the endpoint is legitimately not-busy.
    assert router.route("m1", now=10.0) == only


def test_infrequent_models_share_one_endpoint():
    """The packing effect: session models reuse the same warm endpoint."""
    router = FnPackerRouter(make_pool(), idle_interval_s=10.0)
    # m0 and m1 are busy on their endpoints.
    for model in ("m0", "m1"):
        ep = router.route(model, now=0.0)
        router.on_dispatch(ep, model, now=0.0)
    # A sequential session over m2 then (after completion) m2 again:
    first = router.route("m2", now=1.0)
    router.on_dispatch(first, "m2", now=1.0)
    router.on_complete(first, "m2", now=2.0)
    again = router.route("m2", now=3.0)
    assert again == first  # warm endpoint reused


def test_multi_slot_burst_stays_on_one_endpoint():
    """A same-model burst packs onto one multi-slot endpoint (Rule 1)."""
    router = FnPackerRouter(make_pool(), slots_per_endpoint=4)
    first = router.route("m0", now=0.0)
    router.on_dispatch(first, "m0", now=0.0)
    for _ in range(3):
        ep = router.route("m0", now=0.1)
        assert ep == first
        router.on_dispatch(ep, "m0", now=0.1)


def test_slots_per_endpoint_validated():
    with pytest.raises(ConfigError):
        FnPackerRouter(make_pool(), slots_per_endpoint=0)


def test_completion_without_dispatch_rejected():
    router = FnPackerRouter(make_pool())
    ep = router.endpoints()[0][0]
    with pytest.raises(RoutingError):
        router.on_complete(ep, "m0", now=0.0)


def test_one_to_one_router():
    router = OneToOneRouter(make_pool())
    endpoints = dict(router.endpoints())
    assert len(endpoints) == 3
    assert router.route("m0", 0.0) != router.route("m1", 0.0)
    assert router.route("m0", 0.0) == router.route("m0", 99.0)
    with pytest.raises(RoutingError):
        router.route("ghost", 0.0)


def test_all_in_one_router():
    router = AllInOneRouter(make_pool())
    assert len(router.endpoints()) == 1
    assert router.route("m0", 0.0) == router.route("m1", 0.0)
    with pytest.raises(RoutingError):
        router.route("ghost", 0.0)


@settings(max_examples=50, deadline=None)
@given(
    events=st.lists(
        st.tuples(st.sampled_from(MODELS), st.floats(0.0, 100.0)),
        max_size=40,
    )
)
def test_dispatch_complete_conservation_property(events):
    """Pending counters stay consistent under any dispatch/complete trace."""
    router = FnPackerRouter(make_pool())
    in_flight = []
    now = 0.0
    for model, delay in events:
        now += delay
        endpoint = router.route(model, now)
        router.on_dispatch(endpoint, model, now)
        in_flight.append((endpoint, model))
        if len(in_flight) >= 3:
            done_ep, done_model = in_flight.pop(0)
            router.on_complete(done_ep, done_model, now)
    # Drain everything; counters must return to zero without error.
    for endpoint, model in in_flight:
        router.on_complete(endpoint, model, now)
    for state in router._endpoints.values():
        assert state.pending == 0
    assert all(v == 0 for v in router._model_pending.values())


def test_dead_endpoint_receives_no_traffic():
    """Routing skips unhealthy invokers, even for pinned models."""
    router = FnPackerRouter(make_pool())
    first = router.route("m0", now=0.0)
    router.on_dispatch(first, "m0", now=0.0)
    router.mark_endpoint_down(first)
    rerouted = router.route("m0", now=1.0)
    assert rerouted != first
    # the pin died with the invoker: pending/exclusivity were cleared
    assert first not in router.exclusive_assignments()


def test_recovered_endpoint_returns_to_rotation():
    router = FnPackerRouter(make_pool(num_endpoints=1))
    (only,) = [name for name, _ in router.endpoints()]
    router.mark_endpoint_down(only)
    with pytest.raises(RoutingError):
        router.route("m0", now=0.0)
    router.mark_endpoint_up(only)
    assert router.route("m0", now=0.0) == only


def test_all_endpoints_down_is_a_routing_error():
    router = FnPackerRouter(make_pool())
    for name, _ in router.endpoints():
        router.mark_endpoint_down(name)
    with pytest.raises(RoutingError):
        router.route("m1", now=0.0)
