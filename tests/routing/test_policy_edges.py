"""Router edge cases: idle-lapse boundary, health churn, crash accounting."""

import pytest

from repro.errors import RoutingError
from repro.routing import EndpointState, FnPackerRouter, FnPool

MODELS = ("m0", "m1", "m2")


def make_pool(**kwargs):
    return FnPool(name="pool", models=MODELS, memory_budget=256, **kwargs)


def test_exclusivity_lapses_exactly_at_idle_interval():
    """The lapse condition is ``>= idle_interval_s``, not ``>``.

    An endpoint whose exclusivity has been quiet for *exactly* the idle
    interval is legitimately not-busy for other models -- the boundary
    must not be an off-by-one that keeps the endpoint hogged forever
    under a perfectly periodic workload.
    """
    router = FnPackerRouter(make_pool(num_endpoints=2), idle_interval_s=5.0)
    first = router.route("m0", now=0.0)
    router.on_dispatch(first, "m0", now=0.0)
    router.route("m0", now=0.0)  # overlap: pins m0 exclusively to `first`
    router.on_complete(first, "m0", now=1.0)
    # `first` went quiet at its last *request* (t=0.0).  One epsilon
    # before the interval it is still exclusive (m1 lands elsewhere)...
    assert router.route("m1", now=4.999) != first
    # ...but exactly at the boundary the exclusivity has lapsed, and
    # `first` is again the first not-busy endpoint in rotation.
    assert router.route("m1", now=5.0) == first


def test_reroute_away_from_unhealthy_and_back_after_recovery():
    """Down => excluded from every rule; up => first choice again."""
    router = FnPackerRouter(make_pool(num_endpoints=2))
    warm = router.route("m0", now=0.0)
    router.on_dispatch(warm, "m0", now=0.0)
    router.on_complete(warm, "m0", now=0.5)
    # healthy: warm-endpoint preference keeps m0 on `warm`
    assert router.route("m0", now=1.0) == warm
    router.mark_endpoint_down(warm)
    rerouted = router.route("m0", now=1.5)
    assert rerouted != warm
    router.on_dispatch(rerouted, "m0", now=1.5)
    router.on_complete(rerouted, "m0", now=2.0)
    router.mark_endpoint_up(warm)
    # recovered endpoint rejoins the rotation: once the substitute is
    # busy with another model, m0 can land on `warm` again.
    router.on_dispatch(rerouted, "m1", now=2.5)
    router.route("m1", now=2.6)  # pins m1 to the substitute
    assert router.route("m0", now=3.0) == warm


def test_slot_accounting_survives_mid_ecall_crash():
    """``on_failure`` frees the slot an in-flight crash leaked.

    With ``slots_per_endpoint=2``, two dispatches fill the endpoint.
    If one request dies mid-ECALL and is only accounted through
    ``on_failure``, the endpoint must be schedulable again (one free
    slot); marking the endpoint down releases nothing -- the surviving
    request's own ``on_failure`` does -- and counters never go negative.
    """
    router = FnPackerRouter(make_pool(), slots_per_endpoint=2)
    ep = router.route("m0", now=0.0)
    router.on_dispatch(ep, "m0", now=0.0)
    second = router.route("m0", now=0.1)
    assert second == ep  # same-model burst packs onto the open slot
    router.on_dispatch(ep, "m0", now=0.1)
    # both slots taken: a third same-model request overflows elsewhere
    assert router._endpoints[ep].pending == 2
    # one request crashes mid-ECALL
    router.on_failure(ep, "m0", now=0.5)
    assert router._endpoints[ep].pending == 1
    assert router._model_pending["m0"] == 1
    # the freed slot is schedulable for the same model again
    assert router.route("m0", now=0.6) == ep
    # the endpoint dies under the other request: its slot is released by
    # that request's on_failure (exactly once), not by the health mark
    router.mark_endpoint_down(ep)
    assert router._endpoints[ep].pending == 1
    router.on_failure(ep, "m0", now=1.0)
    assert router._endpoints[ep].pending == 0
    assert router._model_pending["m0"] == 0
    router.on_failure(ep, "m0", now=1.5)  # a stray second release
    assert router._endpoints[ep].pending == 0
    assert router._model_pending["m0"] == 0


def test_route_excludes_caller_supplied_endpoints():
    """``exclude`` overrides even the Rule-1 pin (full queue != usable)."""
    router = FnPackerRouter(make_pool())
    pinned = router.route("m0", now=0.0)
    router.on_dispatch(pinned, "m0", now=0.0)
    assert router.route("m0", now=0.1) == pinned  # Rule 1
    rerouted = router.route("m0", now=0.1, exclude=frozenset({pinned}))
    assert rerouted != pinned
    with pytest.raises(RoutingError):
        names = frozenset(name for name, _ in router.endpoints())
        router.route("m0", now=0.2, exclude=names)


def test_drain_then_retire_lifecycle():
    """Draining stops new traffic; retiring requires an empty endpoint."""
    router = FnPackerRouter(make_pool(num_endpoints=2))
    victim = router.route("m0", now=0.0)
    router.on_dispatch(victim, "m0", now=0.0)
    router.begin_drain(victim)
    # in-flight request still pins?  No: draining voids the pin, new
    # same-model traffic lands elsewhere.
    assert router.route("m0", now=0.1) != victim
    with pytest.raises(RoutingError):
        router.retire_endpoint(victim)  # still busy
    router.on_complete(victim, "m0", now=0.5)
    router.retire_endpoint(victim)
    assert victim not in dict(router.endpoints())
    assert len(router.endpoints()) == 1


def test_add_endpoint_scales_the_fleet():
    router = FnPackerRouter(make_pool(num_endpoints=1))
    name, servable = router.add_endpoint()
    assert servable == MODELS
    assert name in dict(router.endpoints())
    assert len(router.endpoints()) == 2
    # the new endpoint's name never collides, even after retirement
    router.begin_drain(name)
    router.retire_endpoint(name)
    again, _ = router.add_endpoint()
    assert again != name


def test_endpoint_state_availability():
    state = EndpointState(name="ep")
    assert state.available
    state.draining = True
    assert not state.available
    state.draining = False
    state.healthy = False
    assert not state.available
