"""Hot-path key caches: session ciphers, the SeMIRT key memo, invalidation.

Three layers of cached key state ride the hot path (docs/performance.md):

- the process-wide ``AESGCM.derive`` session-cipher LRU (client side),
- the per-``UserClient`` request-cipher map,
- the in-enclave per-``(uid, model)`` key memo in SeMIRT.

These tests pin the *invalidation* contracts: re-grant, key rotation,
``EC_INVALIDATE_KEYS`` push, and KeyService restart / shard-failover
recovery must each drop exactly the stale state -- and a request under
fresh keys must always succeed afterwards.
"""

import dataclasses
import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.core.deployment import SeSeMIEnvironment
from repro.core.keyfleet import KeyServiceFleet
from repro.core import semirt as semirt_module
from repro.core import semirt_enclave
from repro.core.semirt import SchedulerConfig
from repro.core.stages import Stage
from repro.crypto.aes import AES
from repro.crypto.gcm import (
    AESGCM,
    clear_session_cache,
    evict_session,
    session_cache_size,
)
from repro.crypto.keys import SymmetricKey
from repro.errors import DeadlineExceeded, EnclaveError, InvocationError, ReproError
from repro.sgx.attestation import AttestationService


def make_input(model, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(model.input_spec.shape).astype(np.float32)


def infer_on(user, host, model_id, x):
    enc = user.encrypt_request(model_id, host.measurement, x)
    return user.decrypt_response(
        model_id, host.measurement, host.infer(enc, user.principal_id, model_id)
    )


# -- session-cipher cache (crypto layer) --------------------------------------


def test_derive_returns_cached_context():
    key = SymmetricKey.generate()
    first = AESGCM.derive(key)
    assert isinstance(first, AESGCM)
    assert AESGCM.derive(key) is first
    assert AESGCM.derive(bytes(key)) is first  # keyed on material


def test_derived_cipher_interoperates_with_fresh_aesgcm():
    key = SymmetricKey.generate()
    cipher = AESGCM.derive(key)
    blob = cipher.seal(b"payload", aad=b"ctx")
    assert AESGCM(bytes(key)).unseal(blob, aad=b"ctx") == b"payload"
    assert cipher.unseal(AESGCM(bytes(key)).seal(b"x", aad=b"a"), aad=b"a") == b"x"


def test_evict_session_drops_exactly_one_key():
    clear_session_cache()
    keys = [SymmetricKey.generate() for _ in range(3)]
    ciphers = [AESGCM.derive(k) for k in keys]
    assert session_cache_size() == 3
    assert evict_session(keys[1])
    assert not evict_session(keys[1])  # already gone
    assert session_cache_size() == 2
    # the evicted key derives a NEW context; the others kept theirs
    assert AESGCM.derive(keys[1]) is not ciphers[1]
    assert AESGCM.derive(keys[0]) is ciphers[0]
    assert AESGCM.derive(keys[2]) is ciphers[2]


def test_clear_session_cache_reports_count():
    clear_session_cache()
    for _ in range(4):
        AESGCM.derive(SymmetricKey.generate())
    assert clear_session_cache() == 4
    assert session_cache_size() == 0


# -- client request-cipher cache + re-grant -----------------------------------


@pytest.fixture()
def world(tiny_model):
    env = SeSeMIEnvironment()
    owner = env.connect_owner()
    user = env.connect_user()
    semirt = env.launch_semirt("tvm")
    env.deploy(tiny_model, "kc-model", owner=owner).grant(user)
    yield env, owner, user, semirt
    semirt.destroy()


def test_client_reuses_one_request_cipher(world, tiny_model):
    _, _, user, semirt = world
    x = make_input(tiny_model)
    user.encrypt_request("kc-model", semirt.measurement, x)
    cipher = user._request_cipher("kc-model", semirt.measurement)
    user.encrypt_request("kc-model", semirt.measurement, x)
    assert user._request_cipher("kc-model", semirt.measurement) is cipher


def test_regrant_self_heals_the_enclave_memo(world, tiny_model):
    """A re-granted (fresh) request key invalidates client state at once
    and the enclave's memoised entry on first contact."""
    env, _, user, semirt = world
    x = make_input(tiny_model)
    before = infer_on(user, semirt, "kc-model", x)
    old_key = user.request_key("kc-model", semirt.measurement)

    # Re-grant: forget the old key, release a fresh one to KeyService.
    user.reset_request_key("kc-model", semirt.measurement)
    user.add_request_key("kc-model", semirt.measurement)
    new_key = user.request_key("kc-model", semirt.measurement)
    assert bytes(new_key) != bytes(old_key)

    # The enclave memo still holds the OLD key; the request under the
    # new key fails once in-enclave, drops the entry, refetches, serves.
    after = infer_on(user, semirt, "kc-model", x)
    assert np.allclose(before, after, atol=1e-5)

    # Self-healing is not a bypass: a forged request (random key never
    # released to KeyService) still fails after the refetch.
    forged = AESGCM(bytes(SymmetricKey.generate())).seal(
        b"junk", aad=b"sesemi-requestkc-model"
    )
    with pytest.raises((InvocationError, ReproError)):
        semirt.infer(forged, user.principal_id, "kc-model")


# -- the in-enclave key memo --------------------------------------------------


def test_memo_keeps_multiple_users_hot(world, tiny_model):
    """With the multi-entry memo, alternating users stay on the hot path."""
    env, owner, user_a, semirt = world
    user_b = env.connect_user("second-user")
    env.deploy(tiny_model, "kc-model", owner=owner).grant(user_b)
    x = make_input(tiny_model)
    for u in (user_a, user_b, user_a, user_b):
        infer_on(u, semirt, "kc-model", x)
    # warm-up done; now both alternating users skip KEY_RETRIEVAL
    for u in (user_a, user_b, user_a):
        infer_on(u, semirt, "kc-model", x)
        assert not semirt.code.last_plan.needs(Stage.KEY_RETRIEVAL)


def test_memo_is_an_lru_bounded_by_the_enclave_constant(world, tiny_model, monkeypatch):
    """The memo bound is the trusted module's ``KEY_MEMO_ENTRIES``: the
    least recently *used* entry goes first, and no number of distinct
    users grows the memo past the constant."""
    monkeypatch.setattr(semirt_enclave, "KEY_MEMO_ENTRIES", 2)
    env, owner, _, semirt = world
    handle = env.deploy(tiny_model, "kc-model", owner=owner)
    users = [
        env.connect_user(f"lru-{i}")
        for i in range(semirt_enclave.KEY_MEMO_ENTRIES + 3)
    ]
    for user in users:
        handle.grant(user)
    a, b, c = users[:3]
    x = make_input(tiny_model)
    for user in (a, b, a, c):  # touching a makes b the eviction victim
        infer_on(user, semirt, "kc-model", x)
    infer_on(a, semirt, "kc-model", x)
    assert not semirt.code.last_plan.needs(Stage.KEY_RETRIEVAL)
    infer_on(b, semirt, "kc-model", x)
    assert semirt.code.last_plan.needs(Stage.KEY_RETRIEVAL)

    for user in users:
        infer_on(user, semirt, "kc-model", x)
    assert len(semirt.code._kc) == semirt_enclave.KEY_MEMO_ENTRIES


def test_capacity_one_restores_single_pair_semantics(world, tiny_model, monkeypatch):
    """A one-entry memo is the paper's single-pair cache: every user
    switch evicts and pays the KeyService round trip again."""
    monkeypatch.setattr(semirt_enclave, "KEY_MEMO_ENTRIES", 1)
    env, owner, user_a, semirt = world
    user_b = env.connect_user("b")
    env.deploy(tiny_model, "kc-model", owner=owner).grant(user_b)
    x = make_input(tiny_model)
    infer_on(user_a, semirt, "kc-model", x)
    infer_on(user_b, semirt, "kc-model", x)  # evicts a's entry
    infer_on(user_a, semirt, "kc-model", x)
    assert semirt.code.last_plan.needs(Stage.KEY_RETRIEVAL)
    assert len(semirt.code._kc) == 1


def test_one_warm_request_is_two_aes_batches(world, tiny_model, monkeypatch):
    """The warm request's AES census, client and enclave together: the
    enclave's request open pre-draws its reply's keystream and the client's
    reply open its next request's, so each party runs one batch (four
    batches before seal() drew from a reservoir)."""
    env, _, user, semirt = world
    x = make_input(tiny_model)
    batches = []
    real = AES.encrypt_blocks

    def counted(self, blocks):
        batches.append(len(blocks))
        return real(self, blocks)

    with env.session(user, "kc-model", semirt=semirt) as session:
        session.infer(x)
        session.infer(x)
        monkeypatch.setattr(AES, "encrypt_blocks", counted)
        out = session.infer(x)
        monkeypatch.undo()
    assert np.allclose(out, tiny_model.run_reference(x).ravel(), atol=1e-5)
    assert len(batches) == 2, batches


def test_pre_drawn_keystream_goes_with_its_cipher(world, tiny_model, monkeypatch):
    """Pre-drawn keystream is key-equivalent state held only by its cipher:
    it is unreachable after ``evict_session``, a memo eviction and
    ``destroy()``."""

    def gone(ref):
        gc.collect()
        return ref() is None

    def memo_cipher():
        (entry,) = semirt.code._kc.values()
        assert entry.cipher._reservoir  # the first seal's spare slot
        return weakref.ref(entry.cipher)

    key = SymmetricKey.generate()
    derived = AESGCM.derive(key)
    derived.unseal(derived.seal(b"x" * 64))
    assert derived._reservoir
    ref = weakref.ref(derived)
    del derived
    assert evict_session(key) and gone(ref)

    monkeypatch.setattr(semirt_enclave, "KEY_MEMO_ENTRIES", 1)
    env, owner, user_a, semirt = world
    user_b = env.connect_user("b")
    env.deploy(tiny_model, "kc-model", owner=owner).grant(user_b)
    x = make_input(tiny_model)
    infer_on(user_a, semirt, "kc-model", x)
    ref = memo_cipher()
    infer_on(user_b, semirt, "kc-model", x)  # evicts a's entry
    assert gone(ref)
    ref = memo_cipher()
    semirt.destroy()
    assert gone(ref)


def test_key_cache_entries_validation():
    """The memo bound is a positive constant of the measured enclave code;
    the host-side scheduler policy has no field that could resize it."""
    bound = semirt_enclave.KEY_MEMO_ENTRIES
    assert isinstance(bound, int) and bound >= 1
    assert {f.name for f in dataclasses.fields(SchedulerConfig)} == {
        "queue_depth", "batch",
    }


def test_ec_invalidate_keys_is_scoped(world, tiny_model):
    env, owner, user, semirt = world
    user_b = env.connect_user("scoped-user")
    env.deploy(tiny_model, "kc-model", owner=owner).grant(user_b)
    x = make_input(tiny_model)
    infer_on(user, semirt, "kc-model", x)
    infer_on(user_b, semirt, "kc-model", x)

    # drop only user_b's entry
    assert semirt.invalidate_keys(uid=user_b.principal_id) == 1
    infer_on(user, semirt, "kc-model", x)
    assert not semirt.code.last_plan.needs(Stage.KEY_RETRIEVAL)
    infer_on(user_b, semirt, "kc-model", x)
    assert semirt.code.last_plan.needs(Stage.KEY_RETRIEVAL)

    # no-filter drop clears the rest
    assert semirt.invalidate_keys() >= 1
    infer_on(user, semirt, "kc-model", x)
    assert semirt.code.last_plan.needs(Stage.KEY_RETRIEVAL)


def test_invalidate_keys_waits_for_a_slot_on_a_busy_enclave(world, tiny_model):
    """The revocation push is a control item on the scheduler queue: with
    one hot client saturating the default 1-TCS host, every push still
    lands (the caller's thread used to enter the enclave itself and lose
    the only TCS to the request in flight -- ``TcsExhausted``)."""
    _, _, user, semirt = world
    x = make_input(tiny_model)
    infer_on(user, semirt, "kc-model", x)  # memoise the pair
    enc = user.encrypt_request("kc-model", semirt.measurement, x)
    stop = threading.Event()
    served, raised = [], []

    def hot_client():  # sealed once: the loop is enclave time, back to back
        try:
            while not stop.is_set():
                semirt.infer(enc, user.principal_id, "kc-model")
                served.append(1)
        except Exception as exc:  # pragma: no cover - the failure mode
            raised.append(exc)

    client = threading.Thread(target=hot_client)
    client.start()
    try:
        dropped = 0
        for _ in range(200):
            try:
                dropped += semirt.invalidate_keys(uid=user.principal_id)
            except Exception as exc:  # the parent raised TcsExhausted here
                raised.append(exc)
            time.sleep(0.001)  # let the client back in: pushes land mid-request
    finally:
        stop.set()
        client.join(timeout=30)
    assert raised == []
    assert served and dropped >= 1  # both really ran, and entries really went
    # the memoised pair really is gone: push, then the next request refetches
    infer_on(user, semirt, "kc-model", x)
    assert semirt.invalidate_keys(uid=user.principal_id) == 1
    infer_on(user, semirt, "kc-model", x)
    assert semirt.code.last_plan.needs(Stage.KEY_RETRIEVAL)


def test_invalidate_keys_is_bounded_and_typed(world, tiny_model, monkeypatch):
    """No wait without a bound: a slot that never comes ends in
    ``DeadlineExceeded``; a destroyed enclave in ``EnclaveError``."""
    _, _, user, semirt = world
    infer_on(user, semirt, "kc-model", make_input(tiny_model))
    monkeypatch.setattr(semirt_module, "_WAIT_BOUND_S", 0.2)
    release = threading.Event()
    held = threading.Event()
    real_load = semirt.enclave._ocall_handlers["OC_LOAD_MODEL"]

    def stuck_load(model_id):  # an ECALL parked in an OCALL holds the only slot
        held.set()
        release.wait(10)
        return real_load(model_id)

    semirt.enclave.register_ocall("OC_LOAD_MODEL", stuck_load)
    semirt.code._model_id = None  # force a reload through the stuck OCALL
    enc = user.encrypt_request("kc-model", semirt.measurement, make_input(tiny_model))
    busy = semirt.submit(enc, user.principal_id, "kc-model")
    assert held.wait(10)
    with pytest.raises(DeadlineExceeded):
        semirt.invalidate_keys()
    release.set()
    busy.result(timeout_s=30)
    assert semirt.invalidate_keys() >= 0  # served again once the slot is back
    semirt.destroy()
    with pytest.raises(EnclaveError):
        semirt.invalidate_keys()


def test_gateway_invalidate_broadcasts_to_live_hosts(world, tiny_model):
    env, _, user, _ = world
    with env.session(user, "kc-model", node_id="bcast-node") as session:
        session.infer(make_input(tiny_model))
        dropped = session.gateway.invalidate_keys(uid=user.principal_id)
        assert dropped == 1


def test_keyservice_restart_flushes_the_whole_memo(tiny_model):
    """Shard-failover recovery: the first key fetch after a KeyService
    restart re-attests and flushes every memoised verdict (they predate
    the restarted world)."""
    attestation = AttestationService()
    fleet = KeyServiceFleet(1, attestation)
    env = SeSeMIEnvironment(
        keyservice=fleet.shards[0], attestation=attestation
    )
    owner = env.connect_owner()
    user_a = env.connect_user("fa")
    user_b = env.connect_user("fb")
    semirt = env.launch_semirt("tvm")
    handle = env.deploy(tiny_model, "fm", owner=owner)
    handle.grant(user_a).grant(user_b)
    x = make_input(tiny_model)

    infer_on(user_a, semirt, "fm", x)
    infer_on(user_a, semirt, "fm", x)
    assert not semirt.code.last_plan.needs(Stage.KEY_RETRIEVAL)

    # crash-stop + sealed-state restart (the failover/restore path)
    fleet.kill_shard(0)
    fleet.restart_shard(0)

    # user_b's first fetch hits the dead channel, re-attests, and
    # flushes the memo wholesale...
    infer_on(user_b, semirt, "fm", x)
    assert semirt.code.last_plan.needs(Stage.KEY_RETRIEVAL)
    # ...so user_a's memoised verdict is gone too: one refetch, then hot.
    infer_on(user_a, semirt, "fm", x)
    assert semirt.code.last_plan.needs(Stage.KEY_RETRIEVAL)
    infer_on(user_a, semirt, "fm", x)
    assert not semirt.code.last_plan.needs(Stage.KEY_RETRIEVAL)
    semirt.destroy()
