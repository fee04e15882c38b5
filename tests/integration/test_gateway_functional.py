"""FnPacker routing over *live* enclaves: the gateway acceptance test.

One :class:`FnPool` of two models is served by two real
:class:`SemirtHost` endpoints behind an :class:`InferenceGateway`
running the FnPacker strategy.  Requests run the full secure path
(client-side encryption, RA-TLS key provisioning, in-enclave inference),
while routing follows the same Section IV-C policy the simulated twin
benchmarks: overlapping hot-model traffic pins its endpoint
exclusively, pushing the cold model to the other endpoint; a crashed
endpoint reroutes in-place without failing a user request; and every
decision is visible as a ``route`` span on the environment tracer.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.deployment import SeSeMIEnvironment
from repro.errors import DeadlineExceeded
from repro.routing import FnPool
from tests.conftest import held_ecalls

HOT, COLD = "hot-model", "cold-model"


def _wait_for(predicate, timeout_s=10.0):
    """Poll ``predicate`` (the functional twin runs on wall time)."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


def test_fnpacker_gateway_over_live_endpoints(tiny_model, tiny_input):
    env = SeSeMIEnvironment()
    owner = env.connect_owner()
    user = env.connect_user()
    env.deploy(tiny_model, HOT, owner=owner).grant(user)
    env.deploy(tiny_model, COLD, owner=owner).grant(user)

    pool = FnPool(name="fleet", models=(HOT, COLD), memory_budget=0,
                  num_endpoints=2)
    gw = env.gateway(pool)
    hot = env.session(user, HOT, gateway=gw)
    cold = env.session(user, COLD, gateway=gw)
    reference = tiny_model.run_reference(tiny_input).ravel()

    outputs, errors = [], []

    def request(session):
        try:
            outputs.append(session.infer(tiny_input))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    # Held inside their ECALLs, hot requests genuinely overlap, so the
    # router sees the hot model *pending* when the next one arrives.
    with held_ecalls("EC_MODEL_INF") as gate:
        # Two overlapping hot requests: the second routes while the first
        # is still in flight, which is exactly FnPacker Rule 1 -- the hot
        # model's endpoint becomes its exclusive assignment.
        first = threading.Thread(target=request, args=(hot,))
        first.start()
        gate.wait_entered(1)
        second = threading.Thread(target=request, args=(hot,))
        second.start()
        _wait_for(lambda: HOT in gw.router.exclusive_assignments().values())
        exclusive = {e: m for e, m in gw.router.exclusive_assignments().items()}
        hot_endpoint = next(e for e, m in exclusive.items() if m == HOT)

        # While the hot endpoint is exclusively held, the cold model must
        # land on the *other* endpoint even though the hot one may have
        # free TCS slots.
        third = threading.Thread(target=request, args=(cold,))
        third.start()
        gate.wait_entered(2)
        gate.release()
        for thread in (first, second, third):
            thread.join()
    assert not errors, errors

    spans = [s for s in env.tracer.finished_spans() if s.name == "route"]
    by_model = {}
    for span in spans:
        by_model.setdefault(span.attributes["model_id"], []).append(span)
    assert {e.attributes["endpoint"] for e in by_model[HOT]} == {hot_endpoint}
    assert any(s.attributes["exclusive"] for s in by_model[HOT])
    cold_endpoint = by_model[COLD][0].attributes["endpoint"]
    assert cold_endpoint != hot_endpoint
    assert by_model[COLD][0].attributes["reroutes"] == 0

    # Crash the hot endpoint's enclave.  The next hot request finds the
    # pinned endpoint dead, reroutes to the survivor, and succeeds --
    # the user never sees the failure.
    gw.host(hot_endpoint).destroy()
    request(hot)
    assert not errors, errors

    rerouted = [s for s in env.tracer.finished_spans()
                if s.name == "route" and s.attributes["model_id"] == HOT
                and s.attributes["endpoint"] == cold_endpoint]
    assert rerouted and rerouted[-1].attributes["reroutes"] >= 1

    # Every request decrypted to the right answer through all of this.
    assert len(outputs) == 4
    for out in outputs:
        assert np.allclose(out, reference, atol=1e-5)

    gw.close()
    assert all(not h.enclave.alive for h in gw.hosts().values())


MIX = ("gw-m0", "gw-m1", "gw-m2")


def test_held_requests_spread_over_the_fleet_then_all_complete(tiny_model, tiny_input):
    """Three models on three 1-TCS endpoints: with every request held
    inside its ECALL, FnPacker has already put work on at least two
    endpoints at once -- the fleet, not one enclave, serves the mix."""
    env = SeSeMIEnvironment()
    for model_id in MIX:
        env.deploy(tiny_model, model_id, owner="owner").grant("user")
    pool = FnPool(name="mix", models=MIX, memory_budget=0, num_endpoints=3)
    gw = env.gateway(pool)
    sessions = [env.session("user", model_id, gateway=gw) for model_id in MIX]
    for endpoint, _ in gw.router.endpoints():
        gw.ensure_host(endpoint)  # launched off the gate, like a warm fleet
    reference = tiny_model.run_reference(tiny_input).ravel()
    with held_ecalls("EC_MODEL_INF") as gate:
        futures = [sessions[i % len(MIX)].submit(tiny_input) for i in range(6)]
        gate.wait_entered(2)
        busy = {id(code) for _, code in gate.parked}
        assert len(busy) >= 2, "every held request sits in one enclave"
        gate.release()
        outputs = [future.result(timeout_s=30) for future in futures]
    assert all(np.allclose(out, reference, atol=1e-5) for out in outputs)
    assert gw.in_flight == 0
    gw.close()


def test_a_timed_out_dispatch_never_reaches_the_enclave(tiny_model, tiny_input):
    """A dispatch whose caller stopped waiting is cancelled, not left in
    the endpoint queue to take a TCS slot for an output nobody reads."""
    env = SeSeMIEnvironment()
    env.deploy(tiny_model, "m", owner="owner").grant("user")
    pool = FnPool(name="solo", models=("m",), memory_budget=0, num_endpoints=1)
    gw = env.gateway(pool)
    session = env.session("user", "m", gateway=gw)
    session.infer(tiny_input)  # cold start off the gate
    user = env.user("user")
    host = gw.primary_host()
    enc = user.encrypt_request("m", host.measurement, tiny_input)
    with held_ecalls("EC_MODEL_INF") as gate:
        held = session.submit(tiny_input)  # A: holds the only TCS
        gate.wait_entered(1)
        with pytest.raises(DeadlineExceeded):  # B: queued behind A
            gw.dispatch(enc, user.principal_id, "m", timeout_s=0.05)
        gate.release()
        np.testing.assert_allclose(
            held.result(timeout_s=30), tiny_model.run_reference(tiny_input).ravel(),
            atol=1e-5,
        )
        # a control item queued behind B: once it ran, B was handled
        host.invalidate_keys()
    assert gate.entered["EC_MODEL_INF"] == 1
    assert host.code.pending_outputs == 0
    assert gw.in_flight == 0
    gw.close()
