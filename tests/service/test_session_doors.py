"""One session class over both doors: the in-process gateway and HTTP.

``env.session(...)`` dispatches through an
:class:`~repro.core.gateway.InferenceGateway`; ``remote.session(...)``
through :class:`~repro.service.client.HttpGateway`, the service tier's
same three entry points over sealed bytes.  Sealing, opening, the
deadline and the root span live once, in
:class:`~repro.core.client.UserSession`, so every case here runs on
both doors.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.deployment import SeSeMIEnvironment
from repro.core.semirt_enclave import default_semirt_config
from repro.errors import DeadlineExceeded, TransportError
from repro.faults.resilience import ResiliencePolicy
from repro.mlrt.zoo import build_mobilenet
from tests.conftest import held_ecalls
from tests.service.conftest import MODEL_ID, launch_world

#: how long a 0.2 s deadline may take to surface on a loaded machine
_BOUND_S = 5.0


@pytest.fixture(scope="module")
def http_world():
    world = launch_world(tcs_count=1)
    world.session.infer(world.x)  # warm: launch, keys, first ECALL
    yield world
    world.close()


@pytest.fixture(scope="module")
def local_session():
    """An in-process session on its own one-endpoint, one-TCS gateway."""
    env = SeSeMIEnvironment()
    config = default_semirt_config(tcs_count=1)
    model = build_mobilenet(seed=11)
    env.deploy(model, MODEL_ID, owner="owner", config=config).grant("user")
    x = np.zeros(model.input_spec.shape, dtype=np.float32)
    with env.session("user", MODEL_ID, config=config) as session:
        session.infer(x)  # warm
        yield session, x


@pytest.fixture(params=["gateway", "http"])
def door(request):
    """``(session, the gateway that serves it, an input)`` per door."""
    if request.param == "http":
        world = request.getfixturevalue("http_world")
        return world.session, world.service.gateway, world.x
    session, x = request.getfixturevalue("local_session")
    return session, session.gateway, x


def _drained(gateway, timeout_s: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while gateway.in_flight and time.monotonic() < deadline:
        time.sleep(0.01)
    return gateway.in_flight == 0


def test_both_doors_hand_out_the_same_session_class(http_world, local_session):
    session, _ = local_session
    assert type(http_world.remote.session("svc-user", MODEL_ID)) is type(session)
    assert type(http_world.remote.model(MODEL_ID).session("svc-user")) is type(session)


def test_infer_honours_its_timeout_with_no_resilience_policy(door):
    """A request held inside its ECALL cannot finish, so ``timeout_s=0.2``
    must surface as :class:`DeadlineExceeded` -- not block until the gate
    opens -- and leave nothing in flight once the ECALL is let go."""
    session, gateway, x = door
    outcome = []

    def call():
        try:
            outcome.append(session.infer(x, timeout_s=0.2))
        except Exception as exc:  # noqa: BLE001 - the outcome is the assertion
            outcome.append(exc)

    with held_ecalls("EC_MODEL_INF") as gate:
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=_BOUND_S)
        blocked = caller.is_alive()
        gate.release()
        caller.join(timeout=30)
    assert not blocked, f"infer(timeout_s=0.2) still blocked after {_BOUND_S}s"
    assert len(outcome) == 1 and isinstance(outcome[0], DeadlineExceeded), outcome
    assert _drained(gateway)
    # the session still serves afterwards
    assert np.all(np.isfinite(session.infer(x)))


def test_retries_under_a_policy_share_the_one_timeout(monkeypatch):
    """With a :class:`ResiliencePolicy`, ``infer(x, timeout_s=T)`` is one
    budget: a first attempt that fails with :class:`TransportError` after
    most of ``T`` leaves the retry only what is left, so a held second
    attempt surfaces :class:`DeadlineExceeded` at about ``T``, not one
    more ``T`` later.  In-process only: a remote session has no policy."""
    budget, first_s = 1.0, 0.7
    env = SeSeMIEnvironment(resilience=ResiliencePolicy())
    config = default_semirt_config(tcs_count=1)
    model = build_mobilenet(seed=11)
    env.deploy(model, MODEL_ID, owner="owner", config=config).grant("user")
    x = np.zeros(model.input_spec.shape, dtype=np.float32)
    with env.session("user", MODEL_ID, config=config) as session:
        session.infer(x)  # warm
        gateway, timeouts, outcome = session.gateway, [], []
        dispatch = gateway.dispatch

        def first_attempt_lost(enc, uid, model_id, timeout_s=None):
            timeouts.append(timeout_s)
            if len(timeouts) == 1:
                time.sleep(first_s)
                raise TransportError("reply lost after most of the budget")
            return dispatch(enc, uid, model_id, timeout_s=timeout_s)

        monkeypatch.setattr(gateway, "dispatch", first_attempt_lost)

        def call():
            start = time.monotonic()
            try:
                session.infer(x, timeout_s=budget)
            except Exception as exc:  # noqa: BLE001 - the outcome is the assertion
                outcome.append(exc)
            outcome.append(time.monotonic() - start)

        with held_ecalls("EC_MODEL_INF") as gate:
            caller = threading.Thread(target=call, daemon=True)
            caller.start()
            caller.join(timeout=_BOUND_S)
            blocked = caller.is_alive()
            gate.release()
            caller.join(timeout=30)
        assert not blocked, f"infer(timeout_s={budget}) still blocked after {_BOUND_S}s"
        error, elapsed = outcome
        assert isinstance(error, DeadlineExceeded), outcome
        assert timeouts[0] <= budget and timeouts[1] <= budget - first_s
        assert elapsed < budget + 0.35, elapsed
        assert _drained(gateway)
