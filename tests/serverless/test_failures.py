"""Failure injection: storage loss, stale sessions.

The threat model assumes a cloud that controls the software stack, so
robustness to infrastructure misbehaviour -- missing artifacts,
restarted services -- is part of the system's contract.
"""

import numpy as np
import pytest

from repro.core.deployment import SeSeMIEnvironment
from repro.errors import StorageError

MB = 1024 * 1024


def test_missing_model_artifact_fails_loudly(tiny_model, tiny_input):
    env = SeSeMIEnvironment()
    owner = env.connect_owner()
    user = env.connect_user()
    semirt = env.launch_semirt("tvm")
    env.deploy(tiny_model, "m", owner=owner).grant(user)
    env.storage.delete("models/m")  # the cloud "loses" the artifact
    enc = user.encrypt_request("m", semirt.measurement, tiny_input)
    with pytest.raises(StorageError):
        semirt.infer(enc, user.principal_id, "m")
    semirt.destroy()


def test_semirt_recovers_from_keyservice_restart(tiny_model, tiny_input):
    """A restarted KeyService invalidates sessions; SeMIRT re-attests."""
    from repro.core.keyservice import KeyServiceHost

    env = SeSeMIEnvironment()
    owner = env.connect_owner()
    user = env.connect_user()
    semirt = env.launch_semirt("tvm")
    env.deploy(tiny_model, "m", owner=owner).grant(user)

    def infer_as(client):
        enc = client.encrypt_request("m", semirt.measurement, tiny_input)
        return client.decrypt_response(
            "m", semirt.measurement,
            semirt.infer(enc, client.principal_id, "m"),
        )

    first = infer_as(user)

    # Restart KeyService: fresh enclave, same code (same E_K), empty
    # channel table.  Re-register state as a recovering operator would.
    env.keyservice = KeyServiceHost(env.keyservice_platform, env.attestation)
    for principal in (owner, user):
        principal.connect(env.keyservice, env.attestation, env.keyservice.measurement)
        principal.register()
    owner.add_model_key("m")
    owner.grant_access("m", semirt.measurement, user.principal_id)
    user.add_request_key("m", semirt.measurement)
    # Point the host's network OCALLs at the restarted service.
    semirt.enclave.register_ocall("OC_KS_HANDSHAKE", env.keyservice.handshake)
    semirt.enclave.register_ocall("OC_KS_REQUEST", env.keyservice.request)

    # Force a key fetch (different user slot) over the stale session:
    # SeMIRT must drop it, re-attest, and keep serving.
    other = env.connect_user("other")
    owner.grant_access("m", semirt.measurement, other.principal_id)
    other.add_request_key("m", semirt.measurement)
    out = infer_as(other)
    assert np.allclose(out, first, atol=1e-5)
    semirt.destroy()


def test_sgx2_edmm_expansion(tiny_model):
    """Dynamic enclave memory: identity unchanged, EPC accounted."""
    from repro.sgx.enclave import EnclaveBuildConfig, EnclaveCode
    from repro.sgx.platform import SGX1, SGX2, SgxPlatform
    from repro.errors import EnclaveError

    class Code(EnclaveCode):
        pass

    sgx2 = SgxPlatform(SGX2)
    enclave = sgx2.create_enclave(Code(), EnclaveBuildConfig(memory_bytes=MB))
    identity = enclave.measurement
    committed = sgx2.epc.committed_bytes
    enclave.expand_memory(4 * MB)
    assert enclave.measurement == identity            # not re-measured
    assert enclave.dynamic_bytes == 4 * MB
    assert sgx2.epc.committed_bytes == committed + 4 * MB
    with pytest.raises(EnclaveError):
        enclave.expand_memory(0)
    enclave.destroy()
    assert sgx2.epc.committed_for(enclave.enclave_id) == 0

    # SGX1 has no EDMM.
    sgx1 = SgxPlatform(SGX1)
    legacy = sgx1.create_enclave(Code(), EnclaveBuildConfig(memory_bytes=MB))
    with pytest.raises(EnclaveError, match="EDMM"):
        legacy.expand_memory(MB)
