"""End-to-end adversarial scenarios (the threat model of Section III).

The adversary controls the untrusted software stack: it can read all
traffic and storage, load arbitrary enclaves, and invoke arbitrary
sequences of enclave functions.  Each test plays one concrete attack and
checks the defence the paper claims.
"""

import numpy as np
import pytest

from repro.core.deployment import SeSeMIEnvironment
from repro.errors import AccessDenied, InvocationError, ReproError


@pytest.fixture(scope="module")
def world(tiny_model, tiny_input):
    env = SeSeMIEnvironment()
    owner = env.connect_owner("hospital")
    user = env.connect_user("patient")
    semirt = env.launch_semirt("tvm")
    env.deploy(tiny_model, "ehr-model", owner=owner).grant(user)
    # Prime the deployment with one legitimate inference.
    enc = user.encrypt_request("ehr-model", semirt.measurement, tiny_input)
    semirt.infer(enc, user.principal_id, "ehr-model")
    yield env, owner, user, semirt
    semirt.destroy()


def test_storage_never_sees_plaintext_model(world, tiny_model):
    """The cloud reads storage: the artifact must be indistinguishable junk."""
    env, *_ = world
    blob = env.storage.get("models/ehr-model")
    plain = tiny_model.serialize()
    assert plain not in blob
    # No 64-byte window of weight data survives in the ciphertext.
    assert plain[200:264] not in blob


def test_cloud_cannot_decrypt_request(world, tiny_input):
    """A captured request ciphertext is useless without the request key."""
    env, owner, user, semirt = world
    enc = user.encrypt_request("ehr-model", semirt.measurement, tiny_input)
    assert tiny_input.tobytes() not in enc


def test_rogue_enclave_cannot_obtain_keys(world):
    """The adversary loads its own (different) enclave code: KeyService
    must refuse it keys because its MRENCLAVE is not in AC_M."""
    env, owner, user, semirt = world
    rogue = env.launch_semirt("tflm", node_id="rogue-node")  # different E_S
    assert rogue.measurement != semirt.measurement
    enc = user.encrypt_request("ehr-model", semirt.measurement, np.zeros(1))
    with pytest.raises(AccessDenied):
        rogue.infer(enc, user.principal_id, "ehr-model")
    rogue.destroy()


def test_adversarial_ecall_sequences_leak_nothing(world):
    """Arbitrary ECALL orderings on a fresh enclave expose no state."""
    env, *_ , semirt = world
    fresh = env.launch_semirt("tvm", node_id="probe-node")
    from repro.errors import EnclaveError

    with pytest.raises(EnclaveError):
        fresh.enclave.ecall("EC_GET_OUTPUT", 1)  # nothing computed yet
    fresh.enclave.ecall("EC_CLEAR_EXEC_CTX", 1)  # harmless no-op
    with pytest.raises(EnclaveError):
        fresh.enclave.ecall("EC_GET_OUTPUT", 1)
    # guessing other tickets is equally fruitless
    with pytest.raises(EnclaveError):
        fresh.enclave.ecall("EC_GET_OUTPUT", 424242)
    fresh.destroy()


def test_forged_grant_rejected(world):
    """An attacker cannot grant itself access without the owner's key."""
    env, owner, user, semirt = world
    from repro.core import wire
    from repro.core.client import KeyServiceConnection
    from repro.crypto.gcm import AESGCM
    from repro.crypto.keys import SymmetricKey

    attacker_key = SymmetricKey.generate()
    connection = KeyServiceConnection(
        env.keyservice, env.attestation, env.keyservice.measurement, "attacker"
    )
    attacker_id = connection.call_checked(
        {"op": "register", "identity_key": bytes(attacker_key)}
    )["id"]
    forged_blob = AESGCM(bytes(attacker_key)).seal(
        wire.dumps(
            {
                "model_id": "ehr-model",
                "enclave_id": semirt.measurement.value,
                "uid": attacker_id,
            }
        ),
        aad=b"grant_access",
    )
    # Claiming to be the owner fails: the blob is not under the owner's key.
    reply = connection.call(
        {"op": "grant_access", "oid": owner.principal_id, "blob": forged_blob}
    )
    assert not reply["ok"]


def test_swapped_model_artifact_detected(world, tiny_input):
    """Substituting another (also encrypted) model fails authentication."""
    env, owner, user, semirt = world
    original = env.storage.get("models/ehr-model")
    # Adversary swaps in a blob of the right shape but wrong key/aad.
    from repro.crypto.gcm import AESGCM
    from repro.crypto.keys import SymmetricKey

    swap = AESGCM(bytes(SymmetricKey.generate())).seal(original, aad=b"x")
    env.storage.put("models/ehr-model", swap)
    fresh = env.launch_semirt("tvm", node_id="swap-node")
    user.add_request_key("ehr-model", fresh.measurement)
    owner.grant_access("ehr-model", fresh.measurement, user.principal_id)
    enc = user.encrypt_request("ehr-model", fresh.measurement, tiny_input)
    try:
        with pytest.raises(InvocationError):
            fresh.infer(enc, user.principal_id, "ehr-model")
    finally:
        env.storage.put("models/ehr-model", original)
        fresh.destroy()


def test_response_cannot_be_spoofed(world, tiny_input):
    """The host cannot substitute a fake result for the encrypted output."""
    env, owner, user, semirt = world
    with pytest.raises(ReproError):
        user.decrypt_response(
            "ehr-model", semirt.measurement, b"\x00" * 64
        )


def test_request_cannot_be_replayed_across_models(world, tiny_input, tiny_model):
    """AAD binds the ciphertext to one model id."""
    env, owner, user, semirt = world
    env.deploy(tiny_model, "other-model", owner=owner).grant(user)
    enc_for_a = user.encrypt_request("ehr-model", semirt.measurement, tiny_input)
    # Host redirects the same ciphertext at a different model id.
    with pytest.raises(ReproError):
        semirt.infer(enc_for_a, user.principal_id, "other-model")


def test_revocation_takes_effect_for_new_enclaves(world, tiny_input):
    env, owner, user, semirt = world
    owner.revoke_access("ehr-model", semirt.measurement, user.principal_id)
    fresh = env.launch_semirt("tvm", node_id="revoked-node")
    try:
        enc = user.encrypt_request("ehr-model", fresh.measurement, tiny_input)
        with pytest.raises(AccessDenied):
            fresh.infer(enc, user.principal_id, "ehr-model")
    finally:
        fresh.destroy()
        owner.grant_access("ehr-model", semirt.measurement, user.principal_id)


def test_keyservice_impersonation_detected(world):
    """A fake KeyService (non-enclave host) cannot fool a client."""
    env, *_ = world

    class FakeHost:
        def handshake(self, offer_wire):
            # Replays a genuine handshake response captured earlier? It
            # cannot: the response must carry a quote binding the fresh
            # DH key.  The best it can do is answer without a quote.
            from repro.crypto.dh import DHKeyPair
            from repro.sgx.ratls import HandshakeOffer

            keypair = DHKeyPair.generate()
            return {
                "channel_id": 1,
                "server_offer": HandshakeOffer(keypair.public).to_wire(),
            }

        def request(self, channel_id, ciphertext):  # pragma: no cover
            return b""

    from repro.core.client import KeyServiceConnection
    from repro.errors import AttestationError

    with pytest.raises(AttestationError):
        KeyServiceConnection(
            FakeHost(), env.attestation, env.keyservice.measurement, "victim"
        )
