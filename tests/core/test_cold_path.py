"""The cold path's bookkeeping: KeyService's bounded channel table, the
once-per-class MRENCLAVE source hash, the public-key census of one cold
start, the untrusted handshake reply and what ``destroy()`` leaves behind.

Every cold start opens one RA-TLS channel to KeyService, and one-way
attestation lets anyone open one, so the enclave keeps at most
``keyservice.MAX_CHANNELS`` of them, least recently used first out.  An
evicted peer is told "unknown channel" and attests again: SeMIRT through
``_fetch_keys``, a client through ``KeyServiceConnection.call``.
"""

import gc
import inspect
import weakref

import numpy as np
import pytest

import repro.errors
from repro.core import keyservice as keyservice_module
from repro.core.client import KeyServiceConnection
from repro.core.deployment import SeSeMIEnvironment
from repro.core.keyservice import KeyServiceEnclaveCode
from repro.core.semirt_enclave import SemirtEnclaveCode
from repro.crypto import group
from repro.crypto.dh import DHKeyPair
from repro.crypto.signature import SigningKey, VerifyKey
from repro.errors import AttestationError, EnclaveError
from repro.mlrt.framework import ModelRuntime
from repro.sgx.ratls import SecureChannel


def connect(env, name="probe"):
    return KeyServiceConnection(
        env.keyservice, env.attestation, env.keyservice.measurement, name=name,
        tracer=env.tracer,
    )


def handshake_spans(env, client):
    return [
        span for span in env.tracer.spans
        if span.name == "ratls_handshake" and span.attributes.get("client") == client
    ]


@pytest.fixture()
def small_table(monkeypatch):
    monkeypatch.setattr(keyservice_module, "MAX_CHANNELS", 4)
    return 4


def test_channel_table_never_exceeds_its_bound(small_table):
    env = SeSeMIEnvironment()
    table = env.keyservice.code._channels
    for i in range(10):
        connect(env)
        assert len(table) == min(i + 1, small_table)
    assert list(table) == [7, 8, 9, 10]  # the four most recent handshakes


def test_a_request_refreshes_recency(small_table):
    env = SeSeMIEnvironment()
    oldest = connect(env)
    others = [connect(env) for _ in range(3)]
    assert oldest.call({"op": "nonsense"})["ok"] is False  # served: channel 1 is now newest
    connect(env)  # evicts channel 2, not channel 1
    assert list(env.keyservice.code._channels) == [3, 4, 1, 5]
    with pytest.raises(EnclaveError, match="unknown channel 2"):
        env.keyservice.request(2, others[0]._channel.send(b"x"))


def test_an_evicted_client_attests_again_and_is_served(small_table, tiny_model):
    env = SeSeMIEnvironment()
    owner = env.connect_owner()
    handle = env.deploy(tiny_model, "m", owner=owner)
    users = [env.connect_user(f"u{i}") for i in range(small_table)]
    assert 1 not in env.keyservice.code._channels  # the owner sat idle
    assert len(handshake_spans(env, "owner")) == 1
    for user in users:  # grant = one owner op + one user op each
        handle.grant(user)
    assert len(handshake_spans(env, "owner")) > 1
    assert len(env.keyservice.code._channels) == small_table


def test_an_evicted_semirt_reattests_once_on_its_next_key_miss(small_table, tiny_model, tiny_input):
    env = SeSeMIEnvironment()
    handle = env.deploy(tiny_model, "m")
    handle.grant("alice").grant("bob")
    host = env.launch_semirt("tvm")
    try:
        want = tiny_model.run_reference(tiny_input).ravel()
        first = env.session("alice", "m", semirt=host).infer(tiny_input)
        assert np.allclose(first, want, atol=1e-5)
        semirt_channel = host.code._ks_session[0]
        for _ in range(small_table):
            connect(env)
        assert semirt_channel not in env.keyservice.code._channels

        marker = len(env.tracer.spans)
        second = env.session("bob", "m", semirt=host).infer(tiny_input)  # key-cache miss
        assert np.allclose(second, want, atol=1e-5)
        events = [
            event for span in env.tracer.spans[marker:] for event in span.events
            if event["name"] == "keyservice_reattest"
        ]
        assert len(events) == 1
        assert events[0]["attributes"] == {"error": "EnclaveError"}
        assert host.code._ks_session[0] in env.keyservice.code._channels
    finally:
        host.destroy()


def test_cold_cycles_do_not_accumulate_channels(tiny_model, tiny_input):
    """Object counts, not RSS: allocator behaviour cannot flake this."""

    def live_channels() -> int:
        gc.collect()
        return sum(type(obj) is SecureChannel for obj in gc.get_objects())

    env = SeSeMIEnvironment()
    env.deploy(tiny_model, "m").grant("alice")
    before = live_channels()  # both ends of the owner's and alice's, plus other tests'
    for _ in range(30):
        host = env.launch_semirt("tvm")
        try:
            env.session("alice", "m", semirt=host).infer(tiny_input)
        finally:
            host.destroy()
    del host
    assert len(env.keyservice.code._channels) == keyservice_module.MAX_CHANNELS < 30
    assert live_channels() - before <= keyservice_module.MAX_CHANNELS


def test_class_source_is_hashed_once_per_class(monkeypatch, tiny_model, tiny_input):
    """Two launches and two sessions read each enclave class's source at
    most once (it was twice per launch: ``Enclave.__init__`` and
    ``expected_semirt_measurement``)."""
    calls = []
    real = inspect.getsource

    def counting(obj):
        calls.append(obj)
        return real(obj)

    monkeypatch.setattr(inspect, "getsource", counting)
    env = SeSeMIEnvironment()
    env.deploy(tiny_model, "m").grant("alice")
    hosts = [env.launch_semirt("tvm") for _ in range(2)]
    try:
        for host in hosts:
            env.session("alice", "m", semirt=host).infer(tiny_input)
        assert hosts[0].measurement == hosts[1].measurement == env.expected_semirt("tvm")
    finally:
        for host in hosts:
            host.destroy()
    for cls in (SemirtEnclaveCode, KeyServiceEnclaveCode):
        assert calls.count(cls) <= 1


# -- the public-key census of one cold start -----------------------------------------


def test_one_cold_start_is_two_short_shared_secrets_and_six_fixed_base_powers(
    monkeypatch, tiny_model, tiny_input
):
    """The in-tree twin of docs/performance.md's census table: the next
    full-length modexp on the cold path fails here, not in a benchmark."""
    env = SeSeMIEnvironment()
    env.deploy(tiny_model, "m").grant("alice")
    env.launch_semirt("tvm").destroy()  # first launch on this platform, off the census

    calls = {"shared_secret": [], "g_pow": [], "sign": 0, "verify": 0, "membership": 0}
    real_shared, real_g_pow = DHKeyPair.shared_secret, group.g_pow
    real_sign, real_verify = SigningKey.sign, VerifyKey.verify
    real_member = group.is_group_element

    def shared_secret(self, peer):
        calls["shared_secret"].append(self.private.bit_length())
        return real_shared(self, peer)

    def g_pow(x):
        calls["g_pow"].append(x.bit_length())
        return real_g_pow(x)

    def sign(self, message):
        calls["sign"] += 1
        return real_sign(self, message)

    def verify(self, message, signature):
        calls["verify"] += 1
        return real_verify(self, message, signature)

    def is_group_element(x):
        calls["membership"] += 1
        return real_member(x)

    monkeypatch.setattr(DHKeyPair, "shared_secret", shared_secret)
    monkeypatch.setattr(group, "g_pow", g_pow)
    monkeypatch.setattr(SigningKey, "sign", sign)
    monkeypatch.setattr(VerifyKey, "verify", verify)
    monkeypatch.setattr(group, "is_group_element", is_group_element)

    host = env.launch_semirt("tvm")
    try:
        out = env.session("alice", "m", semirt=host).infer(tiny_input)
    finally:
        host.destroy()
    assert np.allclose(out, tiny_model.run_reference(tiny_input).ravel(), atol=1e-5)

    assert len(calls["shared_secret"]) == 2  # one mutual handshake, both ends
    assert all(bits <= group.SHORT_SCALAR_BITS for bits in calls["shared_secret"])
    # two ephemeral keys through the short table; two quote signatures' nonces
    # and two verifications' g^s through the full-length one
    assert len(calls["g_pow"]) == 6
    assert sorted(bits <= group.SHORT_SCALAR_BITS for bits in calls["g_pow"]) == (
        [False] * 4 + [True] * 2
    )
    assert calls["sign"] == 2 and calls["verify"] == 2
    # per end: its own key, the peer's key off the wire, the quote's verify key
    assert calls["membership"] == 6


# -- the untrusted OC_KS_HANDSHAKE reply -----------------------------------------------


LYING_REPLIES = {
    "empty": lambda honest: {},
    "no-server-offer": lambda honest: {"channel_id": 1},
    "none": lambda honest: None,
    "empty-server-offer": lambda honest: {"channel_id": 1, "server_offer": {}},
    "no-channel-id": lambda honest: {"server_offer": honest["server_offer"]},
    "channel-id-is-a-string": lambda honest: {**honest, "channel_id": "1"},
    "channel-id-is-a-bool": lambda honest: {**honest, "channel_id": True},
    "short-quote-signature": lambda honest: {
        **honest,
        "server_offer": {
            **honest["server_offer"],
            "quote": {**honest["server_offer"]["quote"], "signature": b"\x00" * 10},
        },
    },
}


@pytest.mark.parametrize("lie", LYING_REPLIES.values(), ids=LYING_REPLIES.keys())
def test_a_lying_handshake_reply_is_refused_as_an_attestation_error(
    lie, tiny_model, tiny_input
):
    """The host relays (and may rewrite) KeyService's handshake flight:
    whatever it hands back, what leaves ``EC_MODEL_INF`` is a
    ``repro.errors`` type, nothing was derived from the reply, and the same
    host serves the honest retry."""
    env = SeSeMIEnvironment()
    env.deploy(tiny_model, "m").grant("alice")
    host = env.launch_semirt("tvm")
    try:
        honest = host.enclave._ocall_handlers["OC_KS_HANDSHAKE"]
        host.enclave.register_ocall("OC_KS_HANDSHAKE", lambda offer: lie(honest(offer)))
        session = env.session("alice", "m", semirt=host)
        with pytest.raises(AttestationError) as refusal:
            session.infer(tiny_input)
        assert type(refusal.value).__module__ == repro.errors.__name__
        assert host.code._ks_session is None and not host.code._kc

        host.enclave.register_ocall("OC_KS_HANDSHAKE", honest)
        out = session.infer(tiny_input)
        assert np.allclose(out, tiny_model.run_reference(tiny_input).ravel(), atol=1e-5)
    finally:
        host.destroy()


# -- a destroyed enclave holds no heap ---------------------------------------------------


def test_destroy_frees_the_model_the_memo_and_the_keyservice_channel_at_once(
    tiny_model, tiny_input
):
    """With the cycle collector off: what ``EREMOVE`` would free is dead when
    ``destroy()`` returns, not a generation-2 collection later -- although
    host <-> enclave <-> code is a reference cycle and the session's gateway
    still holds the host."""
    env = SeSeMIEnvironment()
    env.deploy(tiny_model, "m").grant("alice")
    gc.collect()
    gc.disable()
    try:
        host = env.launch_semirt("tvm")
        session = env.session("alice", "m", semirt=host)
        session.infer(tiny_input)
        code = host.code
        (entry,) = code._kc.values()
        heap = {
            "model": weakref.ref(code._model),
            "memo entry": weakref.ref(entry),
            # SessionCipher is one slot; the key schedule and GHASH tables
            # are its AESGCM's
            "memo cipher": weakref.ref(entry.cipher._gcm),
            "keyservice channel": weakref.ref(code._ks_session[1]),
            # the per-TCS runtime lives in a worker thread's local storage
            "runtime": weakref.ref(
                next(
                    obj for obj in gc.get_objects()
                    if isinstance(obj, ModelRuntime) and obj.model is code._model
                )
            ),
        }
        assert host.enclave._ocall_handlers
        del entry
        host.destroy()
        assert {name for name, ref in heap.items() if ref() is not None} == set()
        assert not host.enclave._ocall_handlers
        assert code.pending_outputs == code.open_streams == 0
        with pytest.raises(EnclaveError, match="is destroyed"):
            host.enclave.ecall("EC_INVALIDATE_KEYS")
        with pytest.raises(EnclaveError, match="is destroyed"):
            code.ocall("OC_LOAD_MODEL", "m")
    finally:
        gc.enable()

