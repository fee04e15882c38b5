"""InferenceGateway unit behaviour, driven over scripted stub hosts.

The stubs implement just the host surface the gateway touches
(``submit``/ticket ``result``, ``enclave.alive``, ``destroy``), so each
test scripts exact endpoint behaviour -- full queues, crashes at
admission, crashes mid-serve -- and asserts the routing consequence.
"""

import pytest

from repro.core.gateway import GatewayConfig, InferenceGateway
from repro.errors import (
    DeadlineExceeded,
    EnclaveError,
    QueueFull,
    RoutingError,
    SeSeMIError,
)
from repro.faults.resilience import BreakerPolicy
from repro.obs.span import LogicalClock
from repro.obs.tracer import Tracer
from repro.routing import FnPool, ScaleOutPolicy

MODELS = ("m0", "m1")


class _FakeEnclave:
    def __init__(self):
        self.alive = True


class _FakeTicket:
    """An already-resolved endpoint handle (the stubs serve instantly);
    a scripted ``DeadlineExceeded`` stands for one still in flight."""

    def __init__(self, outcome):
        self._outcome = outcome

    def done(self):
        return not isinstance(self._outcome, DeadlineExceeded)

    def result(self, timeout_s=None):
        if isinstance(self._outcome, Exception):
            raise self._outcome
        return self._outcome


class _FakeHost:
    """Scripted host: ``plan`` is a list of per-submit behaviours.

    Each entry is ``bytes`` (the reply), an exception instance to raise
    at submit, or ``("result", exc)`` to fail at result time.  When the
    plan runs out the host echoes the request.
    """

    def __init__(self, name, plan=None):
        self.name = name
        self.enclave = _FakeEnclave()
        self.plan = list(plan or [])
        self.submits = 0

    def submit(self, enc_request, uid, model_id):
        self.submits += 1
        step = self.plan.pop(0) if self.plan else enc_request
        if isinstance(step, Exception):
            if isinstance(step, EnclaveError):
                self.enclave.alive = False
            raise step
        if isinstance(step, tuple) and step[0] == "result":
            exc = step[1]
            if isinstance(exc, EnclaveError):
                self.enclave.alive = False
            return _FakeTicket(exc)
        return _FakeTicket(step)

    def open_stream(self, enc_request, uid, model_id):
        """Same script as ``submit``; the reply is a one-frame stream."""
        ticket = self.submit(enc_request, uid, model_id)
        if not isinstance(ticket._outcome, Exception):
            ticket._outcome = [ticket._outcome]
        return ticket

    def invalidate_keys(self, uid=None, model_id=None):
        step = self.plan.pop(0) if self.plan else 1
        if isinstance(step, Exception):
            if isinstance(step, EnclaveError):
                self.enclave.alive = False
            raise step
        return step

    def destroy(self):
        self.enclave.alive = False


def make_gateway(plans, num_endpoints=2, models=MODELS, **config_kwargs):
    """A gateway over fake hosts; ``plans`` maps endpoint -> script."""
    pool = FnPool(
        name="p", models=models, memory_budget=0, num_endpoints=num_endpoints
    )
    launched = []

    def launcher(endpoint):
        # pop: a relaunched endpoint starts fresh (plan already consumed)
        host = _FakeHost(endpoint, plans.pop(endpoint, None))
        launched.append(endpoint)
        return host

    tracer = Tracer(service="test", clock=LogicalClock())
    gw = InferenceGateway(
        pool, launcher, config=GatewayConfig(**config_kwargs), tracer=tracer
    )
    gw.launched = launched
    return gw


def test_dispatch_launches_lazily_and_serves():
    gw = make_gateway({})
    reply = gw.dispatch(b"x", "u", "m0")
    assert reply.output == b"x"
    assert reply.decision.cold and reply.decision.reroutes == 0
    assert gw.launched == ["p-ep0"]
    # a second request reuses the warm endpoint: no new launch
    reply = gw.dispatch(b"y", "u", "m0")
    assert not reply.decision.cold
    assert gw.launched == ["p-ep0"]
    assert gw.in_flight == 0


def test_queue_full_reroutes_instead_of_retrying():
    """Backpressure excludes the endpoint; the queue is never re-entered."""
    gw = make_gateway({"p-ep0": [b"ok", QueueFull("full")]})
    gw.dispatch(b"warm", "u", "m0")  # pins m0's warm endpoint to ep0
    reply = gw.dispatch(b"x", "u", "m0")
    assert reply.output == b"x"
    assert reply.decision.endpoint == "p-ep1"
    assert reply.decision.reroutes == 1
    # ep0 saw exactly two submits (warm + the rejected one) -- the
    # gateway did not hammer the full queue.
    assert gw.host("p-ep0").submits == 2


def test_queue_full_everywhere_surfaces_to_caller():
    gw = make_gateway(
        {"p-ep0": [QueueFull("full")], "p-ep1": [QueueFull("full")]}
    )
    with pytest.raises(QueueFull):
        gw.dispatch(b"x", "u", "m0")
    assert gw.in_flight == 0


def test_crash_at_admission_redispatches():
    gw = make_gateway({"p-ep0": [EnclaveError("boom")]})
    reply = gw.dispatch(b"x", "u", "m0")
    assert reply.output == b"x"
    assert reply.decision.redispatches == 1
    assert reply.decision.endpoint == "p-ep1"
    # the dead endpoint is out of rotation for the next request
    reply = gw.dispatch(b"y", "u", "m1")
    assert reply.decision.endpoint == "p-ep1"


def test_crash_mid_serve_redispatches_and_frees_slots():
    gw = make_gateway({"p-ep0": [("result", EnclaveError("died"))]})
    reply = gw.dispatch(b"x", "u", "m0")
    assert reply.output == b"x"
    assert reply.decision.redispatches == 1
    assert gw.in_flight == 0  # the failed attempt's slot was released


def test_degenerate_single_endpoint_surfaces_crash_then_relaunches():
    """The session contract: no redispatch, relaunch cold next time."""
    gw = make_gateway(
        {"p-ep0": [("result", EnclaveError("died"))]},
        num_endpoints=1,
        redispatch_on_crash=False,
    )
    with pytest.raises(EnclaveError):
        gw.dispatch(b"x", "u", "m0")
    # next dispatch relaunches the endpoint in place (cold)
    reply = gw.dispatch(b"y", "u", "m0")
    assert reply.output == b"y"
    assert reply.decision.cold
    assert gw.launched == ["p-ep0", "p-ep0"]


def test_sustained_pressure_scales_out():
    gw = make_gateway(
        {
            "p-ep0": [QueueFull("full")] * 9,
            "p-ep1": [QueueFull("full")] * 9,
        },
        scale_out=ScaleOutPolicy(threshold=2, max_endpoints=3),
    )
    with pytest.raises(QueueFull):
        gw.dispatch(b"a", "u", "m0")  # pressure 1: no growth yet
    reply = gw.dispatch(b"b", "u", "m0")  # pressure 2: spawns p-ep2
    assert reply.output == b"b"
    assert reply.decision.endpoint == "p-ep2"
    assert gw.endpoint_count == 3


@pytest.mark.parametrize("entry", ["dispatch", "submit", "open_stream"])
def test_every_entry_point_observes_pressure_once_per_admission(entry):
    """One walk behind all three: the scale-out tracker cannot drift.

    Scripted: the whole fleet is full, then ep0 is full and ep1 serves,
    then the fleet is idle.  Partial pressure must count (the second
    request is the second *consecutive* pressured admission and spawns
    p-ep2) and an idle admission must leave the count reset.
    """
    gw = make_gateway(
        {"p-ep0": [QueueFull("full")] * 2, "p-ep1": [QueueFull("full")]},
        scale_out=ScaleOutPolicy(threshold=2, max_endpoints=3),
    )

    def serve(payload):
        if entry == "dispatch":
            return gw.dispatch(payload, "u", "m0").output
        return getattr(gw, entry)(payload, "u", "m0").result()

    seen = []
    with pytest.raises(QueueFull):
        serve(b"a")
    seen.append((gw._pressure.consecutive, gw.endpoint_count))
    for payload in (b"b", b"c"):
        assert serve(payload) in (payload, [payload])
        seen.append((gw._pressure.consecutive, gw.endpoint_count))
    assert seen == [(1, 2), (0, 3), (0, 3)]
    assert gw.host("p-ep0").submits == 2 and gw.host("p-ep1").submits >= 2
    assert gw.in_flight == 0


def test_breaker_opens_and_excludes_endpoint():
    gw = make_gateway(
        {"p-ep0": [("result", ValueError("bad")), ("result", ValueError("bad"))]},
        breaker=BreakerPolicy(failure_threshold=2, cooldown_s=1000.0),
        redispatch_on_crash=False,
    )
    for _ in range(2):  # ValueError is not redispatchable: it surfaces
        with pytest.raises(ValueError):
            gw.dispatch(b"x", "u", "m0")
    # two failures opened ep0's breaker; traffic silently avoids it
    reply = gw.dispatch(b"y", "u", "m0")
    assert reply.decision.endpoint == "p-ep1"
    assert reply.decision.reroutes == 1


def test_dispatch_timeout_releases_the_slot_and_charges_the_endpoint():
    """Nobody else holds a dispatched request: when the caller's wait
    expires the slot is released and the endpoint takes the failure."""
    gw = make_gateway(
        {"p-ep0": [("result", DeadlineExceeded("still serving"))]},
        breaker=BreakerPolicy(failure_threshold=1, cooldown_s=1000.0),
    )
    with pytest.raises(DeadlineExceeded):
        gw.dispatch(b"x", "u", "m0", timeout_s=0.001)
    assert gw.in_flight == 0
    assert gw.host("p-ep0").submits == 1  # a timeout is not redispatched
    assert gw.dispatch(b"y", "u", "m0").decision.endpoint == "p-ep1"


def test_drain_then_retire_destroys_owned_host():
    gw = make_gateway({})
    gw.dispatch(b"x", "u", "m0")
    victim = "p-ep0"
    host = gw.host(victim)
    gw.retire(victim, timeout_s=1.0)
    assert not host.enclave.alive
    assert victim not in dict(gw.router.endpoints())
    # traffic continues on the remaining endpoint
    assert gw.dispatch(b"y", "u", "m0").decision.endpoint == "p-ep1"


def test_attached_host_is_used_but_never_destroyed():
    gw = make_gateway({}, num_endpoints=1)
    shared = _FakeHost("external")
    gw.attach("p-ep0", shared)
    reply = gw.dispatch(b"x", "u", "m0")
    assert not reply.decision.cold
    assert shared.submits == 1
    gw.close()
    assert shared.enclave.alive  # attached, not owned
    with pytest.raises(RoutingError):
        gw.attach("nope", shared)


def test_route_spans_carry_decision_attributes():
    gw = make_gateway({"p-ep0": [QueueFull("full")]})
    gw.dispatch(b"w", "u", "m0")  # ep0 full on arrival: rerouted to ep1
    gw.dispatch(b"x", "u", "m0")  # warm path, no reroute
    spans = [s for s in gw.tracer.finished_spans() if s.name == "route"]
    assert len(spans) == 2
    attrs = spans[0].attributes
    assert attrs["endpoint"] == "p-ep1"
    assert attrs["reroutes"] == 1 and attrs["cold"]
    assert "exclusive" in attrs and "model_id" in attrs
    assert spans[1].attributes["reroutes"] == 0


def test_invalidate_keys_reaches_every_endpoint_and_reports_the_rest():
    """One failing host must not shield the hosts after it: the sweep
    visits every endpoint, a host that died under it is not a failure
    (its memo died with it), and what could not be reached is reported."""
    gw = make_gateway({}, num_endpoints=3)
    names = [name for name, _ in gw.router.endpoints()]
    hosts = [gw._launch(name)[0] for name in names]
    hosts[0].plan = [DeadlineExceeded("no slot"), 2]
    hosts[1].plan = [EnclaveError("destroyed")]  # a destroy racing the sweep
    hosts[2].plan = [3, 4]
    with pytest.raises(SeSeMIError, match="did not reach") as caught:
        gw.invalidate_keys(uid="u")
    assert list(caught.value.unreached) == [names[0]]
    assert caught.value.dropped == 3  # the host after both failures was reached
    assert hosts[2].plan == [4]
    hosts[1].enclave.alive = True
    assert gw.invalidate_keys(uid="u") == 2 + 1 + 4
