"""The cold path's bookkeeping: KeyService's bounded channel table, the
once-per-class MRENCLAVE source hash, the public-key census of one cold
start, the untrusted handshake reply and what ``destroy()`` leaves behind.

Every cold start opens one RA-TLS channel to KeyService, and one-way
attestation lets anyone open one, so the enclave keeps at most
``keyservice.MAX_CHANNELS`` of them, least recently used first out.  An
evicted peer is told "unknown channel" and attests again: SeMIRT through
``_fetch_keys``, a client through ``KeyServiceConnection.call``.
"""

import builtins
import gc
import inspect
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

import repro.errors
from repro.core import keyservice as keyservice_module
from repro.core.client import KeyServiceConnection
from repro.core.deployment import SeSeMIEnvironment
from repro.core.keyservice import KeyServiceEnclaveCode
from repro.core.semirt_enclave import SemirtEnclaveCode
from repro.crypto import gcm, group
from repro.crypto.dh import DHKeyPair
from repro.crypto.signature import SigningKey, VerifyKey
from repro.errors import AttestationError, EnclaveError
from repro.mlrt.framework import ModelRuntime
from repro.sgx.enclave import EnclaveBuildConfig, EnclaveCode
from repro.sgx.ratls import RatlsPeer, SecureChannel


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


def test_one_cold_start_is_two_short_shared_secrets_and_ten_short_fixed_base_powers(
    monkeypatch, tiny_model, tiny_input
):
    """The in-tree twin of docs/performance.md's census table: the next
    modexp on the cold path with an exponent over 256 bits -- through a comb
    or through the built-in ``pow`` -- fails here, not in a benchmark."""
    env = SeSeMIEnvironment()
    env.deploy(tiny_model, "m").grant("alice")

    def cold_start():
        host = env.launch_semirt("tvm")
        try:
            return env.session("alice", "m", semirt=host).infer(tiny_input)
        finally:
            host.destroy()

    # the first one on these platforms builds each root key's table (once per
    # provisioned root, like the generators' once per process): off the census
    cold_start()

    calls = {
        "shared_secret": [], "g_pow": [], "sig_g_pow": [], "root_pow": [], "pow": [],
        "sign": 0, "verify": 0, "jacobi_membership": 0, "subgroup_membership": 0,
    }
    real_shared, real_g_pow, real_sig_g_pow = DHKeyPair.shared_secret, group.g_pow, group.sig_g_pow
    real_fixed_pow, real_pow = group.FixedBase.pow, builtins.pow
    real_sign, real_verify = SigningKey.sign, VerifyKey.verify
    real_member = group.is_group_element
    generators = {group.g_pow.__self__, group.sig_g_pow.__self__}

    def shared_secret(self, peer):
        calls["shared_secret"].append(self.private.bit_length())
        return real_shared(self, peer)

    def g_pow(x):
        calls["g_pow"].append(x.bit_length())
        return real_g_pow(x)

    def sig_g_pow(x):
        calls["sig_g_pow"].append(x.bit_length())
        return real_sig_g_pow(x)

    def fixed_pow(self, x):  # every other fixed base: the inverse of a root key
        assert self not in generators and self.modulus == group.SIG_P
        calls["root_pow"].append(x.bit_length())
        calls["subgroup_membership"] += x == group.SIG_Q
        return real_fixed_pow(self, x)

    def counted_pow(base, exponent, modulus=None):
        if modulus is None:
            return real_pow(base, exponent)
        calls["pow"].append(exponent.bit_length())
        return real_pow(base, exponent, modulus)

    def sign(self, message):
        calls["sign"] += 1
        return real_sign(self, message)

    def verify(self, message, signature):
        calls["verify"] += 1
        return real_verify(self, message, signature)

    def is_group_element(x):
        calls["jacobi_membership"] += 1
        return real_member(x)

    monkeypatch.setattr(DHKeyPair, "shared_secret", shared_secret)
    monkeypatch.setattr(group, "g_pow", g_pow)
    monkeypatch.setattr(group, "sig_g_pow", sig_g_pow)
    monkeypatch.setattr(group.FixedBase, "pow", fixed_pow)
    monkeypatch.setattr(builtins, "pow", counted_pow)
    monkeypatch.setattr(SigningKey, "sign", sign)
    monkeypatch.setattr(VerifyKey, "verify", verify)
    monkeypatch.setattr(group, "is_group_element", is_group_element)

    out = cold_start()
    monkeypatch.undo()
    assert np.allclose(out, tiny_model.run_reference(tiny_input).ravel(), atol=1e-5)

    assert len(calls["shared_secret"]) == 2  # one mutual handshake, both ends
    assert calls["sign"] == 2 and calls["verify"] == 2  # one quote each way
    # per end: its own ephemeral key and the peer's key off the wire ...
    assert calls["jacobi_membership"] == 4
    # ... and y^SIG_Q == 1 for the root key each quote is verified under
    assert calls["subgroup_membership"] == 2
    assert len(calls["g_pow"]) == 2  # the two ephemeral DH public keys
    assert len(calls["sig_g_pow"]) == 4  # two signing nonces, two g^s
    assert len(calls["root_pow"]) == 4  # per verification: membership, then 1/y^e
    # the only built-in modexps are the two shared secrets; no root table was built
    assert len(calls["pow"]) == 2
    every_exponent = [bits for name in ("shared_secret", "g_pow", "sig_g_pow", "root_pow", "pow")
                      for bits in calls[name]]
    assert len(every_exponent) == 14 and max(every_exponent) <= 256
    assert group.SHORT_SCALAR_BITS == group.SIG_Q.bit_length() == 256


# -- the AEAD set-up census of one cold start ------------------------------------------


def test_one_cold_start_is_six_ciphers_and_thirty_three_ghash_tables(
    monkeypatch, tiny_model, tiny_input
):
    """The AEAD half of docs/performance.md's census, by the code that built
    each cipher: an extra ``AESGCM`` or GHASH table on the cold path fails
    here, not in a benchmark."""
    env = SeSeMIEnvironment()
    env.deploy(tiny_model, "m").grant("alice")

    def cold_start():
        host = env.launch_semirt("tvm")
        try:
            return env.session("alice", "m", semirt=host).infer(tiny_input)
        finally:
            host.destroy()

    cold_start()  # process-wide caches (the client's derived contexts) settle

    built_by, ciphers, tables = {}, Counter(), Counter()
    real_init, real_power_tables = gcm.AESGCM.__init__, gcm.AESGCM._power_tables

    def init(self, key):
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] == gcm.__name__:  # AESGCM.derive
            frame = frame.f_back
        owner = frame.f_locals.get("self")
        where = type(owner).__name__ if owner is not None else frame.f_globals["__name__"]
        caller = f"{where}.{frame.f_code.co_name}"
        built_by[id(self)] = caller
        ciphers[caller] += 1
        real_init(self, key)

    def power_tables(self, count):
        before = len(self._tables)
        grown = real_power_tables(self, count)
        if len(grown) > before:
            tables[built_by.get(id(self), "a cipher from before the cold start")] += (
                len(grown) - before
            )
        return grown

    monkeypatch.setattr(gcm.AESGCM, "__init__", init)
    monkeypatch.setattr(gcm.AESGCM, "_power_tables", power_tables)
    out = cold_start()
    monkeypatch.undo()
    assert np.allclose(out, tiny_model.run_reference(tiny_input).ravel(), atol=1e-5)

    assert ciphers == {
        "SecureChannel.__init__": 4,  # one RA-TLS handshake: two ends, two directions
        "SemirtEnclaveCode._model_load": 1,  # the model decryption key
        "_KeyCacheEntry.__post_init__": 1,  # the user's request key
    }
    assert tables == {
        # each channel cipher seals or opens one small message: H .. H^8
        "SecureChannel.__init__": 16,
        # the model blob spans chunks: H .. H^128 and the chunk fold H^256
        "SemirtEnclaveCode._model_load": 9,
        # the first request's open: H .. H^128
        "_KeyCacheEntry.__post_init__": 8,
    }


# -- the untrusted EC_HANDSHAKE offer ------------------------------------------------


def attested_offer(env):
    platform = env.worker_platform()
    enclave = platform.create_enclave(EnclaveCode(), EnclaveBuildConfig(memory_bytes=1 << 20))
    return RatlsPeer("client", enclave=enclave, quoter=platform.quote).offer().to_wire()


WRONG_SHAPES = [[], {}, None, "x", 1, -1, 2**70, 1.5, True, b"", b"\x00" * 63, [0] * 64, ["a"] * 64]
MALFORMED_OFFERS = {
    **{
        f"{field}={value!r:.12}": lambda honest, field=field, value=value: {
            **honest, "quote": {**honest["quote"], field: value}
        }
        for field in ("platform_id", "report_data", "signature", "mrenclave", "kind")
        for value in WRONG_SHAPES
    },
    **{
        f"dh_public={value!r:.12}": lambda honest, value=value: {**honest, "dh_public": value}
        for value in (*WRONG_SHAPES, b"\x04" * 255, b"\x00" + b"\x04" * 256)
    },
    "isv_svn=-1": lambda honest: {**honest, "quote": {**honest["quote"], "isv_svn": -1}},
    "isv_svn=2**70": lambda honest: {**honest, "quote": {**honest["quote"], "isv_svn": 2**70}},
    "isv_svn='1'": lambda honest: {**honest, "quote": {**honest["quote"], "isv_svn": "1"}},
    "debug=0": lambda honest: {**honest, "quote": {**honest["quote"], "debug": 0}},
    "quote=[]": lambda honest: {**honest, "quote": []},
    "quote=None": lambda honest: {**honest, "quote": None},
    "quote={}": lambda honest: {**honest, "quote": {}},
    "offer=None": lambda honest: None,
    "offer=[]": lambda honest: [],
}


@pytest.fixture(scope="module")
def handshake_world():
    env = SeSeMIEnvironment()
    return env, attested_offer(env)


@pytest.mark.parametrize("malform", MALFORMED_OFFERS.values(), ids=MALFORMED_OFFERS.keys())
def test_a_malformed_offer_leaves_ec_handshake_as_a_repro_error_and_no_channel(
    malform, handshake_world
):
    """One-way attestation lets anyone send KeyService an offer, and the
    quote in it is caller-built: whatever its fields hold, what leaves
    ``EC_HANDSHAKE`` is a ``repro.errors`` type (``"platform_id": []`` used to
    be ``TypeError: unhashable type`` out of the root lookup) and the channel
    table is as it was."""
    env, honest = handshake_world
    channels = env.keyservice.code._channels
    before = list(channels)
    with pytest.raises(repro.errors.ReproError) as refusal:
        env.keyservice.handshake(malform(honest))
    assert type(refusal.value).__module__ == repro.errors.__name__
    assert isinstance(refusal.value, (AttestationError, repro.errors.CryptoError))
    assert list(channels) == before


def test_the_honest_offer_those_were_cut_from_is_served(handshake_world):
    env, honest = handshake_world
    reply = env.keyservice.handshake(honest)
    assert reply["channel_id"] in env.keyservice.code._channels


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

