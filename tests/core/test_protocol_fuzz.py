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

import repro.errors
from repro.core.client import KeyServiceConnection
from repro.core.deployment import SeSeMIEnvironment
from repro.core.wire import WireError, dumps, loads
from repro.errors import InvocationError, ReproError
from repro.mlrt.zoo import build_mobilenet

#: the only exception family a hostile caller may trigger: every refusal
#: is a typed repro error, never a raw ValueError / KeyError / TypeError
ACCEPTABLE = (ReproError,)


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


# -- the declared boundary: type-confused calls and misshapen messages -------------

#: ``(ECALL, args(sealed_request, uid))``: twenty-three type-confused calls in
#: the shapes ROADMAP item 12 reproduced on a warm MobileNet enclave (seven
#: left it as a raw TypeError; others got through: ``EC_INVALIDATE_KEYS(5, 5)``
#: returned 0, a bytes "batch" was read as that many requests), then three
#: calls only the rows' bounds refuse
SEMIRT_PROBES = {
    "get-output-list": ("EC_GET_OUTPUT", lambda req, uid: ([1],)),
    "get-output-dict": ("EC_GET_OUTPUT", lambda req, uid: ({},)),
    "step-int": ("EC_STREAM_STEP", lambda req, uid: (5,)),
    "step-nested-list": ("EC_STREAM_STEP", lambda req, uid: ([[1]],)),
    "infer-uid-list": ("EC_MODEL_INF", lambda req, uid: (req, [uid], "m")),
    "infer-model-list": ("EC_MODEL_INF", lambda req, uid: (req, uid, ["m"])),
    "batch-none": ("EC_MODEL_INF_BATCH", lambda req, uid: (None, uid, "m")),
    "batch-of-bytes": ("EC_MODEL_INF_BATCH", lambda req, uid: (req, uid, "m")),
    "clear-list": ("EC_CLEAR_EXEC_CTX", lambda req, uid: ([1],)),
    "close-list": ("EC_STREAM_CLOSE", lambda req, uid: ([1],)),
    "invalidate-ints": ("EC_INVALIDATE_KEYS", lambda req, uid: (5, 5)),
    "stream-model-none": ("EC_MODEL_INF_STREAM", lambda req, uid: (req, uid, None)),
    "get-output-bool": ("EC_GET_OUTPUT", lambda req, uid: (True,)),
    "clear-none": ("EC_CLEAR_EXEC_CTX", lambda req, uid: (None,)),
    "infer-request-none": ("EC_MODEL_INF", lambda req, uid: (None, uid, "m")),
    "infer-request-hex": ("EC_MODEL_INF", lambda req, uid: (req.hex(), uid, "m")),
    "batch-item-int": ("EC_MODEL_INF_BATCH", lambda req, uid: ([req, 5], uid, "m")),
    "invalidate-uid-list": ("EC_INVALIDATE_KEYS", lambda req, uid: ([uid], None)),
    "get-output-str": ("EC_GET_OUTPUT", lambda req, uid: ("1",)),
    "step-str": ("EC_STREAM_STEP", lambda req, uid: ("ab",)),
    "stream-uid-int": ("EC_MODEL_INF_STREAM", lambda req, uid: (req, 7, "m")),
    "step-bool-ticket": ("EC_STREAM_STEP", lambda req, uid: ([True],)),
    "batch-tuple": ("EC_MODEL_INF_BATCH", lambda req, uid: ((req,), uid, "m")),
    "infer-uid-empty": ("EC_MODEL_INF", lambda req, uid: (req, "", "m")),
    "infer-model-too-long": ("EC_MODEL_INF", lambda req, uid: (req, uid, "m" * 257)),
    "get-output-zero": ("EC_GET_OUTPUT", lambda req, uid: (0,)),
}

#: ``EC_REQUEST(channel_id, ciphertext)`` of the wrong kinds
KEYSERVICE_PROBES = {
    "channel-list": ([1], b"x"),
    "channel-str": ("1", b"x"),
    "ciphertext-str": (1, "x"),
}

#: operation messages a one-way (unattested) client may send, given the
#: id of a registered principal
MALFORMED_OPERATIONS = {
    "no-op": lambda oid: {},
    "op-list": lambda oid: {"op": ["x"]},
    "register-without-key": lambda oid: {"op": "register"},
    "register-str-key": lambda oid: {"op": "register", "identity_key": "k" * 16},
    "oid-int": lambda oid: {"op": "add_model_key", "oid": 5, "blob": b"x"},
    "grant-without-blob": lambda oid: {"op": "grant_access", "oid": oid},
    "uid-list": lambda oid: {"op": "add_req_key", "uid": ["u"], "blob": b"x"},
    "provision-model-list": lambda oid: {"op": "provision", "uid": oid, "model_id": ["m"]},
}


@pytest.fixture(scope="module")
def one_way(world):
    """An unattested client's KeyService connection (anyone may open one)."""
    env, *_ = world
    return KeyServiceConnection(env.keyservice, env.attestation, env.keyservice.measurement)


def _state(world) -> tuple:
    """What a refused probe must leave exactly as it was."""
    env, owner, user, semirt, *_ = world
    code = semirt.code
    return (code.pending_outputs, code.open_streams, list(code._kc),
            set(env.keyservice.code._channels), env.keyservice.code.registered_principals)


def _refused(world, call) -> BaseException:
    """Run one probe: a typed ``repro.errors`` refusal, nothing changed."""
    before = _state(world)
    with pytest.raises(ReproError) as refusal:
        call()
    assert type(refusal.value).__module__ == repro.errors.__name__
    assert _state(world) == before
    return refusal.value


@pytest.mark.parametrize("name, args", SEMIRT_PROBES.values(), ids=SEMIRT_PROBES.keys())
def test_a_type_confused_semirt_ecall_is_a_typed_bad_request(world, name, args):
    """The host may call any ECALL with anything: a call outside the
    declared row is an ``InvocationError`` -- a bad request, not endpoint
    death -- raised before the body runs, and an honest request follows."""
    env, owner, user, semirt, model, x, baseline = world
    req = user.encrypt_request("m", semirt.measurement, x)
    refusal = _refused(world, lambda: semirt.enclave.ecall(name, *args(req, user.principal_id)))
    assert isinstance(refusal, InvocationError) and f"{name} argument" in str(refusal)
    assert np.allclose(_infer(user, semirt, x), baseline)


@pytest.mark.parametrize("args", KEYSERVICE_PROBES.values(), ids=KEYSERVICE_PROBES.keys())
def test_a_type_confused_keyservice_request_is_refused_typed(world, args):
    env, owner, user, semirt, model, x, baseline = world
    _refused(world, lambda: env.keyservice.enclave.ecall("EC_REQUEST", *args))
    assert np.allclose(_infer(user, semirt, x), baseline)


@pytest.mark.parametrize(
    "message", MALFORMED_OPERATIONS.values(), ids=MALFORMED_OPERATIONS.keys()
)
def test_a_malformed_operation_on_a_one_way_channel_is_an_ok_false_reply(
    world, one_way, message
):
    """An unattested client's misshapen message is KeyService's ``ok: False``
    reply, never an exception out of ``EC_REQUEST``; nothing is stored."""
    env, owner, user, semirt, model, x, baseline = world
    before = _state(world)
    reply = one_way.call(message(owner.principal_id))
    assert reply["ok"] is False and reply["error"]
    assert _state(world) == before
    assert np.allclose(_infer(user, semirt, x), baseline)


def test_system_still_healthy_after_fuzzing(world):
    """After all the garbage above, legitimate service is unaffected."""
    env, owner, user, semirt, model, x, baseline = world
    again = _infer(user, semirt, x)
    assert np.allclose(again, baseline)
