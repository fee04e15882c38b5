"""Protocol fuzzing: malformed and adversarial inputs never break the TCB.

The adversary can invoke enclave functions with arbitrary arguments
(threat model, Section III).  These tests throw random garbage at the
KeyService and SeMIRT ECALL surfaces and require that every outcome is a
*clean, typed* failure -- no unhandled exception classes, no state
corruption, and definitely no secrets.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deployment import SeSeMIEnvironment
from repro.core.wire import WireError, dumps, loads
from repro.errors import ReproError
from repro.mlrt.zoo import build_mobilenet

#: exception families a hostile caller may legitimately trigger
ACCEPTABLE = (ReproError, ValueError, KeyError, TypeError, AttributeError)


@pytest.fixture(scope="module")
def world():
    env = SeSeMIEnvironment()
    owner = env.connect_owner()
    user = env.connect_user()
    model = build_mobilenet()
    semirt = env.launch_semirt("tvm")
    env.deploy(model, "m", owner=owner).grant(user)
    x = np.zeros(model.input_spec.shape, dtype=np.float32)
    baseline = _infer(user, semirt, x)
    yield env, owner, user, semirt, model, x, baseline
    semirt.destroy()


def _infer(user, semirt, x):
    """One legitimate request through the raw host path."""
    enc = user.encrypt_request("m", semirt.measurement, x)
    return user.decrypt_response(
        "m", semirt.measurement, semirt.infer(enc, user.principal_id, "m")
    )


@settings(max_examples=25, deadline=None)
@given(garbage=st.binary(min_size=0, max_size=200))
def test_keyservice_rejects_garbage_ciphertext(world, garbage):
    env, *_ = world
    connection_blob_channel = 1  # some previously opened channel id
    try:
        env.keyservice.request(connection_blob_channel, garbage)
    except ACCEPTABLE:
        pass  # clean failure


@settings(max_examples=25, deadline=None)
@given(
    channel_id=st.integers(-10, 10_000),
    payload=st.binary(min_size=0, max_size=64),
)
def test_keyservice_rejects_random_channels(world, channel_id, payload):
    env, *_ = world
    try:
        env.keyservice.request(channel_id, payload)
    except ACCEPTABLE:
        pass


@settings(max_examples=25, deadline=None)
@given(
    offer=st.dictionaries(
        st.text(max_size=12),
        st.one_of(st.binary(max_size=64), st.integers(), st.text(max_size=12)),
        max_size=4,
    )
)
def test_keyservice_rejects_malformed_handshakes(world, offer):
    env, *_ = world
    try:
        env.keyservice.handshake(offer)
    except ACCEPTABLE:
        pass


@settings(max_examples=25, deadline=None)
@given(
    blob=st.binary(min_size=0, max_size=128),
    uid=st.text(max_size=80),
    model_id=st.text(max_size=40),
)
def test_semirt_rejects_garbage_requests(world, blob, uid, model_id):
    env, owner, user, semirt, *_ = world
    try:
        semirt.enclave.ecall("EC_MODEL_INF", blob, uid, model_id)
    except ACCEPTABLE:
        pass


@settings(max_examples=25, deadline=None)
@given(
    payload=st.dictionaries(
        st.text(max_size=8), st.one_of(st.integers(), st.text(max_size=8)),
        max_size=3,
    ),
    hex_value=st.text(alphabet="0123456789abcdef", max_size=16),
)
def test_wire_rejects_reserved_bytes_tag_key(payload, hex_value):
    """A payload dict carrying ``__bytes_hex__`` must not encode.

    Without the guard such a dict round-trips into *bytes* on the other
    side (type confusion an adversary controls); with it, encoding is a
    clean :class:`WireError` -- and a forged raw message carrying the
    tag alongside other keys fails to decode the same way.
    """
    hostile = dict(payload)
    hostile["__bytes_hex__"] = hex_value
    with pytest.raises(WireError):
        dumps({"field": hostile})
    if payload:  # tag mixed with other keys never decodes either
        forged = dumps({"field": dict(payload)}).replace(
            b"{", b'{"__bytes_hex__": "00", ', 1
        )
        with pytest.raises(WireError):
            loads(forged)


@settings(max_examples=25, deadline=None)
@given(
    value=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    depth=st.integers(0, 2),
)
def test_wire_rejects_non_finite_floats(value, depth):
    """NaN/Infinity are not JSON; encoding must fail deterministically."""
    payload = value
    for _ in range(depth):
        payload = [payload]
    with pytest.raises(WireError):
        dumps({"field": payload})
    assert math.isfinite(3.25)  # finite floats still pass
    assert loads(dumps({"field": 3.25})) == {"field": 3.25}


def test_system_still_healthy_after_fuzzing(world):
    """After all the garbage above, legitimate service is unaffected."""
    env, owner, user, semirt, model, x, baseline = world
    again = _infer(user, semirt, x)
    assert np.allclose(again, baseline)
