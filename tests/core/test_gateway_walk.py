"""The admission walk, over every router the gateway can be handed.

Three layers: the ``exclude`` contract the walk relies on (all three
routers now honour it), the clock a tracer-less gateway tells time by,
and a derandomised property test driving the walk through scripted
hosts -- the gateway tier's "no leaked reserved slot" (ROADMAP 2a).
"""

import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.deployment import SeSeMIEnvironment
from repro.core.futures import gather_windowed
from repro.core.gateway import MAX_REDISPATCH, GatewayConfig, InferenceGateway
from repro.core.semirt_enclave import default_semirt_config
from repro.errors import EnclaveError, QueueFull, RequestCancelled, RoutingError
from repro.routing import AllInOneRouter, FnPackerRouter, FnPool, OneToOneRouter
from repro.warmpool.manager import WarmPoolConfig

from tests.core.test_gateway import _FakeHost

ROUTERS = {
    "fnpacker": FnPackerRouter,
    "one-to-one": OneToOneRouter,
    "all-in-one": AllInOneRouter,
}


def make_gateway(kind, plans, models=("m0",), num_endpoints=None, **config):
    """A tracer-less gateway over scripted ``_FakeHost``s and router ``kind``."""
    pool = FnPool(name="p", models=models, memory_budget=0, num_endpoints=num_endpoints)
    hosts = []

    def launcher(endpoint):
        hosts.append(_FakeHost(endpoint, plans.pop(endpoint, None)))
        return hosts[-1]

    gw = InferenceGateway(
        pool, launcher, config=GatewayConfig(**config), router=ROUTERS[kind](pool)
    )
    gw.launched = hosts
    return gw


# -- the exclude contract, seen from the gateway ---------------------------------------


@pytest.mark.parametrize("kind", ROUTERS)
def test_full_one_endpoint_fleet_is_one_submit_then_queue_full(kind):
    """Backpressure is not a spin: one offer, then the 429-mapped error."""
    gw = make_gateway(kind, {}, num_endpoints=1)
    (endpoint, _), = gw.router.endpoints()
    host, _ = gw.ensure_host(endpoint)
    host.plan = [QueueFull("full")]
    with pytest.raises(QueueFull):
        gw.submit(b"x", "u", "m0")
    assert host.submits == 1
    assert gw.in_flight == 0


@pytest.mark.parametrize("entry", ["dispatch", "submit"])
def test_admission_time_crash_is_one_call_per_endpoint_whatever_the_router(entry):
    """A dead endpoint is not re-picked until the redispatch budget is
    spent, and a fleet of one fails the same way under all three routers."""
    surfaced = {}
    for kind in ROUTERS:
        gw = make_gateway(kind, {}, num_endpoints=1)
        (endpoint, _), = gw.router.endpoints()
        gw.ensure_host(endpoint)[0].plan = [EnclaveError("boom")]
        with pytest.raises(Exception) as caught:
            getattr(gw, entry)(b"x", "u", "m0")
        surfaced[kind] = type(caught.value)
        assert [host.submits for host in gw.launched] == [1], kind
        assert gw.in_flight == 0
    assert len(set(surfaced.values())) == 1, surfaced


@pytest.mark.parametrize("kind", ["one-to-one", "all-in-one"])
def test_baseline_routers_never_return_an_excluded_endpoint(kind):
    router = ROUTERS[kind](FnPool(name="p", models=("m0", "m1"), memory_budget=0))
    endpoint = router.route("m0", 0.0)
    assert router.route("m0", 0.0, frozenset({"elsewhere"})) == endpoint
    with pytest.raises(RoutingError):
        router.route("m0", 0.0, frozenset({endpoint}))
    assert router.state(endpoint) is None  # stateless: nothing to view


def test_a_router_that_ignores_exclude_is_refused_not_spun_on():
    class Stubborn(AllInOneRouter):
        def route(self, model_id, now, exclude=frozenset()):
            return self._endpoint

    pool = FnPool(name="p", models=("m0",), memory_budget=0)
    hosts = []

    def launcher(endpoint):
        hosts.append(_FakeHost(endpoint, [QueueFull("full")] * 9))
        return hosts[-1]

    gw = InferenceGateway(pool, launcher, router=Stubborn(pool))
    with pytest.raises(QueueFull):
        gw.submit(b"x", "u", "m0")
    assert hosts[0].submits == 1


def test_a_dead_endpoint_is_relaunched_before_the_fleet_is_called_saturated():
    """Pinned from the property test: ``QueueFull`` used to surface while
    ep0 -- marked down by an earlier crash -- had not been offered the
    request at all."""
    gw = make_gateway(
        "fnpacker",
        {"p-ep0": [EnclaveError("boom")], "p-ep1": [b"a", QueueFull("full")]},
        num_endpoints=2,
    )
    assert gw.dispatch(b"a", "u", "m0").decision.endpoint == "p-ep1"
    reply = gw.dispatch(b"b", "u", "m0")
    assert reply.output == b"b"
    assert reply.decision.endpoint == "p-ep0" and reply.decision.cold
    assert [host.name for host in gw.launched] == ["p-ep0", "p-ep1", "p-ep0"]


@pytest.mark.parametrize("warm_pool", [None, WarmPoolConfig()])
def test_a_model_outside_the_pool_launches_and_grows_nothing(warm_pool):
    """The walk used to answer the router's "not in pool" by launching
    whichever endpoint had no host yet (and, warm pool armed, by growing
    the fleet for it)."""
    gw = make_gateway("fnpacker", {}, num_endpoints=1, warm_pool=warm_pool)
    with pytest.raises(RoutingError, match="not in pool"):
        gw.submit(b"x", "u", "nope")
    assert gw.launched == [] and gw.endpoint_count == 1


# -- the gateway's clock ------------------------------------------------------------------


def test_a_gateway_without_tracer_or_clock_still_tells_the_time():
    """``_now()`` used to read 0.0 forever: keep-alive never expired (and
    FnPacker exclusivity never lapsed) on a gateway built without a tracer."""
    gw = make_gateway(
        "fnpacker", {}, num_endpoints=1,
        warm_pool=WarmPoolConfig(keep_alive_s=0.01, min_warm=0),
    )
    assert gw.tracer is None
    gw.dispatch(b"x", "u", "m0")
    first = gw._now()
    time.sleep(0.03)
    assert gw._now() > first > 0.0
    assert gw.maintain() == ["p-ep0"]


def test_env_gateway_derives_slots_from_the_enclave_config():
    """Arming a warm pool used to reset the router to one slot per endpoint
    unless the caller remembered to repeat ``tcs_count``."""
    env = SeSeMIEnvironment()
    pool = FnPool(name="p", models=("m0",), memory_budget=0, num_endpoints=1)
    for gateway_config in (None, GatewayConfig(warm_pool=WarmPoolConfig())):
        gw = env.gateway(
            pool, config=default_semirt_config(tcs_count=4), gateway_config=gateway_config
        )
        assert gw.router.slots_per_endpoint == 4
    assert gw.warm_pool is not None


# -- property test: the walk leaks nothing ---------------------------------------------------

OUTCOMES = ("ok", "full", "crash", "die", "cancel")


class _Ticket:
    """One admitted request on a scripted host; dies with its host."""

    def __init__(self, host, outcome, payload):
        self.host, self.outcome, self.payload = host, outcome, payload

    def done(self):
        return True

    def cancel(self):
        return self.outcome == "cancel"

    def result(self, timeout_s=None):
        if self.outcome == "cancel":
            raise RequestCancelled("cancelled")
        if self.outcome == "die":
            self.host.enclave.alive = False
        if not self.host.enclave.alive:
            raise EnclaveError("enclave lost")
        return self.payload


class _ScriptedHost(_FakeHost):
    """Answers each admission with the next outcome of its endpoint's script."""

    def __init__(self, name, script, calls):
        super().__init__(name)
        self.script, self.calls = script, calls

    def submit(self, enc_request, uid, model_id):
        self.calls.append(self.name)
        outcome = self.script.pop(0) if self.script else "ok"
        if outcome == "full":
            raise QueueFull("full")
        if outcome == "crash":
            self.enclave.alive = False
            raise EnclaveError("crashed at admission")
        return _Ticket(self, outcome, enc_request)

    def open_stream(self, enc_request, uid, model_id):
        ticket = self.submit(enc_request, uid, model_id)
        ticket.payload = [ticket.payload]
        return ticket


@pytest.mark.parametrize("rest", ["ok", "cancel"])
def test_a_failed_window_settles_every_handle_still_in_flight(rest):
    """``gather_windowed`` used to re-raise the first failed ``result()``
    and abandon the rest of its window, each holding a gateway slot and a
    router ``pending`` count for good."""
    calls = []
    script = ["die", rest, rest, rest]
    pool = FnPool(name="p", models=("m0",), memory_budget=0, num_endpoints=1)
    router = FnPackerRouter(pool, slots_per_endpoint=4)
    gw = InferenceGateway(
        pool, lambda endpoint: _ScriptedHost(endpoint, script, calls), router=router
    )
    with pytest.raises(EnclaveError):
        gather_windowed(lambda x: gw.submit(x, "u", "m0"), [b"a", b"b", b"c", b"d"],
                        window_for=lambda handle: 4)
    assert len(calls) == 4  # the whole window was in flight when the first failed
    assert gw.in_flight == 0
    (endpoint, _), = router.endpoints()
    state = router.state(endpoint)
    assert state is None or state.pending == 0


def run_walk(kind, num_endpoints, warm, scripts, requests):
    """Drive ``requests`` through a scripted fleet and check the books."""
    models = tuple(f"m{i}" for i in range(num_endpoints if kind == "one-to-one" else 2))
    pool = FnPool(name="p", models=models, memory_budget=0, num_endpoints=num_endpoints)
    router = ROUTERS[kind](pool)
    names = [name for name, _ in router.endpoints()]
    script_of = {name: list(scripts[i]) for i, name in enumerate(names)}
    calls = []
    gw = InferenceGateway(
        pool,
        # a relaunched host keeps consuming its endpoint's script
        lambda endpoint: _ScriptedHost(endpoint, script_of.setdefault(endpoint, []), calls),
        config=GatewayConfig(warm_pool=WarmPoolConfig() if warm else None),
        router=router,
    )
    settles, admitted = Counter(), []
    real_settle, real_admit = gw._settle, gw._admit

    def counting_settle(handle, error, cancelled):
        settles[id(handle)] += 1
        real_settle(handle, error, cancelled)

    def recording_admit(*args):
        admitted.append(real_admit(*args))
        return admitted[-1]

    gw._settle, gw._admit = counting_settle, recording_admit

    def resolve(handle):
        try:
            if handle.inner.outcome != "cancel" or not handle.cancel():
                handle.result()
        except (EnclaveError, RequestCancelled):
            pass

    held = []
    for entry, model_index, hold in requests:
        model_id = models[model_index % len(models)]
        fleet, before = len(gw.router.endpoints()), len(calls)
        try:
            outcome = getattr(gw, entry)(b"x", "u", model_id)
        except QueueFull:
            # saturated means saturated: no endpoint that could serve the
            # model was left unasked
            assert set(calls[before:]) == {
                name for name, served in gw.router.endpoints() if model_id in served
            }
        except (EnclaveError, RoutingError, RequestCancelled):
            pass
        else:
            if entry != "dispatch":
                held.append(outcome) if hold else resolve(outcome)
        assert len(calls) - before <= fleet + MAX_REDISPATCH + 1
    for handle in held:
        resolve(handle)

    assert gw.in_flight == 0
    for name, _ in gw.router.endpoints():
        state = gw.router.state(name)
        assert state is None or state.pending == 0, name
    if warm:
        for name, record in gw.warm_stats()["endpoints"].items():
            assert record["in_flight"] == 0, name
    assert all(settles[id(handle)] == 1 for handle in admitted)
    assert len(settles) == len(admitted)


# counter-examples the walk (or the router under it) used to fail, pinned:
# a crashed endpoint left unasked while QueueFull surfaced ...
@example(
    kind="fnpacker", num_endpoints=2, warm=False,
    scripts=[["full", "full"], ["crash"], [], []],
    requests=[("dispatch", 0, False), ("dispatch", 0, False)],
)
# ... a saturated one-to-one fleet offering m0 to m1's dedicated endpoint ...
@example(
    kind="one-to-one", num_endpoints=2, warm=False,
    scripts=[["full"], ["full"], [], []],
    requests=[("dispatch", 0, False)],
)
# ... a dead endpoint's slots released twice (mark-down, then the request's own
# on_failure), the second release eating the slot its retry took on ep1 ...
@example(
    kind="fnpacker", num_endpoints=2, warm=False,
    scripts=[["ok", "crash"], [], [], []],
    requests=[("submit", 0, True), ("submit", 0, True)],
)
# ... or the slot of the next request on the same endpoint, relaunched
@example(
    kind="fnpacker", num_endpoints=1, warm=True,
    scripts=[["ok", "crash", "ok"], [], [], []],
    requests=[("submit", 0, True), ("submit", 0, False), ("submit", 0, True)],
)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(ROUTERS)),
    num_endpoints=st.integers(1, 4),
    warm=st.booleans(),
    scripts=st.lists(
        st.lists(st.sampled_from(OUTCOMES), max_size=6), min_size=4, max_size=4
    ),
    requests=st.lists(
        st.tuples(
            st.sampled_from(["dispatch", "submit", "open_stream"]),
            st.integers(0, 3),
            st.booleans(),
        ),
        min_size=1, max_size=8,
    ),
)
def test_the_walk_leaks_no_slot_and_settles_every_handle_once(
    kind, num_endpoints, warm, scripts, requests
):
    if kind == "all-in-one":
        num_endpoints = None  # fixed layout: one shared endpoint
    run_walk(kind, num_endpoints, warm, scripts, requests)
