"""InferenceGateway with the warm pool armed, over scripted stub hosts.

Covers the four integration points: temperature/cold-start fields on
:class:`RouteDecision`, warm-hint reuse, :meth:`maintain`'s janitor
sweeps (and a refused retirement), and scale-from-zero regrowth after
the janitor empties the fleet.
"""

import threading

import pytest

from repro.core.gateway import GatewayConfig, InferenceGateway
from repro.errors import QueueFull
from repro.obs.span import LogicalClock
from repro.obs.tracer import Tracer
from repro.routing import FnPool
from repro.warmpool.manager import WarmPoolConfig

from tests.core.test_gateway import _FakeHost

MODELS = ("m0", "m1")


def make_warm_gateway(num_endpoints=2, models=MODELS, plans=None, clock=None, **warm_kwargs):
    pool = FnPool(
        name="p", models=models, memory_budget=0, num_endpoints=num_endpoints
    )
    launched = []
    plans = dict(plans or {})

    def launcher(endpoint):
        launched.append(endpoint)
        return _FakeHost(endpoint, plans.pop(endpoint, None))

    gw = InferenceGateway(
        pool,
        launcher,
        config=GatewayConfig(warm_pool=WarmPoolConfig(**warm_kwargs)),
        tracer=Tracer(service="test", clock=LogicalClock()),
        clock=clock,
    )
    gw.launched = launched
    return gw


class SetClock:
    """A clock that reads what the test last set."""

    def __init__(self, now=0.0):
        self.t = now

    def now(self):
        return self.t


def test_decisions_carry_temperature_and_cold_start_latency():
    gw = make_warm_gateway()
    first = gw.dispatch(b"x", "u", "m0").decision
    assert first.cold and first.temperature == "cold"
    assert first.cold_start_s >= 0.0
    second = gw.dispatch(b"y", "u", "m0").decision
    assert not second.cold and second.temperature == "hot"
    assert second.cold_start_s == 0.0
    counters = gw.warm_pool.counters()
    assert counters["cold"] == 1 and counters["hot"] == 1


def test_warm_hint_reuses_the_pool_strategys_pick():
    gw = make_warm_gateway()
    gw.dispatch(b"x", "u", "m0")
    decision = gw.dispatch(b"y", "u", "m0").decision
    # the second request followed the warm pool back to the live
    # endpoint instead of letting the router fan out to a cold one
    assert decision.warm_hint
    assert gw.launched == ["p-ep0"]


def test_maintain_retires_idle_endpoints_to_the_floor():
    gw = make_warm_gateway(
        keep_alive_s=0.0,
        min_warm=1,
        plans={"p-ep0": [b"a", QueueFull("full")]},
    )
    gw.dispatch(b"a", "u1", "m0")
    # ep0 rejects the second request, so it reroutes and ep1 goes live
    assert gw.dispatch(b"b", "u2", "m0").decision.endpoint == "p-ep1"
    assert gw.warm_pool.fleet_size == 2
    assert len(gw.maintain()) == 1
    assert gw.warm_pool.fleet_size == 1
    assert gw.warm_pool.counters()["janitor_retired"] == 1


def test_a_refused_retirement_ends_the_drain(monkeypatch):
    """A request that lands on a nominee between its nomination and the
    drain makes the router refuse the retirement.  The nominee used to
    stay draining: it held the min_warm floor while nothing could reach
    it, the next sweep retired the healthy peer, and the next request
    cold-launched a third endpoint."""
    gw = make_warm_gateway(
        keep_alive_s=0.0,
        min_warm=1,
        plans={"p-ep0": [b"a", QueueFull("full")]},
    )
    gw.dispatch(b"a", "u1", "m0")
    assert gw.dispatch(b"b", "u2", "m0").decision.endpoint == "p-ep1"
    sweep = gw.warm_pool.sweep
    landed = []

    def sweep_then_land(now):
        victims = sweep(now)
        landed.append(gw.submit(b"c", "u3", "m0"))
        return victims

    monkeypatch.setattr(gw.warm_pool, "sweep", sweep_then_land)
    gw.maintain(retire_timeout_s=0.0)
    assert landed[0].endpoint == "p-ep0"
    assert not gw.router.state("p-ep0").draining
    assert landed[0].result() == b"c"
    monkeypatch.setattr(gw.warm_pool, "sweep", sweep)
    # both idle now: the floor keeps one, and p-ep1 is the older idle
    assert gw.maintain() == ["p-ep1"]
    decision = gw.dispatch(b"d", "u4", "m0").decision
    assert decision.endpoint == "p-ep0" and not decision.cold
    assert gw.launched == ["p-ep0", "p-ep1"]


def test_a_nominee_that_served_after_its_nomination_is_not_retired(monkeypatch):
    """The sweep nominates both idle endpoints; then a request lands on
    p-ep0 and completes while the janitor waits out p-ep0's drain.  That
    use restarts p-ep0's keep-alive, so the janitor must let it serve on
    instead of retiring an endpoint that is no longer idle past it."""
    clock = SetClock()
    gw = make_warm_gateway(
        keep_alive_s=5.0, min_warm=0, clock=clock,
        plans={"p-ep0": [b"a", QueueFull("full")]},
    )
    gw.dispatch(b"a", "u1", "m0")
    assert gw.dispatch(b"b", "u2", "m0").decision.endpoint == "p-ep1"
    clock.t = 100.0  # both idle well past keep_alive_s
    sweep = gw.warm_pool.sweep
    outputs, landed = [], []

    def sweep_then_land(now):
        victims = sweep(now)
        handle = gw.submit(b"c", "u3", "m0")
        assert handle.endpoint == "p-ep0"
        finisher = threading.Timer(0.2, lambda: outputs.append(handle.result()))
        finisher.start()
        landed.append(finisher)
        return victims

    monkeypatch.setattr(gw.warm_pool, "sweep", sweep_then_land)
    assert gw.maintain(retire_timeout_s=2.0) == ["p-ep1"]
    landed[0].join(timeout=5.0)
    assert outputs == [b"c"]
    assert not gw.router.state("p-ep0").draining
    decision = gw.dispatch(b"d", "u4", "m0").decision
    assert decision.endpoint == "p-ep0" and not decision.cold
    assert gw.launched == ["p-ep0", "p-ep1"]


def test_janitor_emptied_fleet_regrows_on_demand():
    gw = make_warm_gateway(
        num_endpoints=1,
        keep_alive_s=0.0,
        min_warm=0,
    )
    gw.dispatch(b"x", "u", "m0")
    assert gw.maintain() == ["p-ep0"]
    assert gw.endpoint_count == 0  # true scale-to-zero
    reply = gw.dispatch(b"y", "u", "m0")
    assert reply.output == b"y"
    assert reply.decision.cold and reply.decision.temperature == "cold"
    assert gw.warm_pool.fleet_size == 1


def test_a_full_warm_fleet_sheds_instead_of_growing():
    """Regrowth is for an emptied fleet only: a saturated one surfaces
    the ``QueueFull`` and keeps its size."""
    gw = make_warm_gateway(
        plans={"p-ep0": [QueueFull("full")], "p-ep1": [QueueFull("full")]},
    )
    with pytest.raises(QueueFull):
        gw.dispatch(b"x", "u", "m0")
    assert gw.endpoint_count == 2
    assert gw.launched == ["p-ep0", "p-ep1"]
    assert gw.in_flight == 0


def test_attached_hosts_are_pinned_against_the_janitor():
    gw = make_warm_gateway(keep_alive_s=0.0, min_warm=0)
    shared = _FakeHost("p-ep0")
    gw.attach("p-ep0", shared)
    assert gw.maintain() == []
    assert shared.enclave.alive
    assert gw.warm_stats()["endpoints"]["p-ep0"]["pinned"]


def test_warm_stats_is_none_when_the_pool_is_not_armed():
    pool = FnPool(name="p", models=MODELS, memory_budget=0, num_endpoints=1)
    gw = InferenceGateway(
        pool, lambda ep: _FakeHost(ep),
        tracer=Tracer(service="test", clock=LogicalClock()),
    )
    assert gw.warm_pool is None
    assert gw.warm_stats() is None
    assert gw.maintain() == []
