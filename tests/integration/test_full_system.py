"""Cross-feature integration: the whole system working together.

These tests wire multiple features at once -- the sharded KeyService
fleet, strong isolation with revocation -- the combinations a real
deployment would actually run.
"""

import numpy as np
import pytest

from repro.core.deployment import SeSeMIEnvironment
from repro.core.keyfleet import KeyServiceFleet
from repro.errors import AccessDenied


def test_sharded_fleet_serves_independent_owners(tiny_model, tiny_input):
    """Two owners on different shards run isolated deployments."""
    from repro.core.client import OwnerClient, UserClient
    from repro.core.semirt import SemirtHost
    from repro.core.semirt_enclave import default_semirt_config
    from repro.serverless.storage import BlobStore
    from repro.sgx.attestation import AttestationService
    from repro.sgx.platform import SGX2, SgxPlatform

    attestation = AttestationService()
    fleet = KeyServiceFleet(4, attestation)
    storage = BlobStore()
    worker_platform = SgxPlatform(SGX2, attestation_service=attestation)

    outputs = {}
    for index in range(2):
        owner = OwnerClient(f"owner-{index}")
        user = UserClient(f"user-{index}")
        owner_shard = fleet.shard_for(owner.identity_key.fingerprint)
        for principal in (owner, user):
            # Owner and user must meet on ONE shard to share a model.
            principal.connect(owner_shard, attestation, fleet.measurement)
            principal.register()
        semirt = SemirtHost(
            platform=worker_platform,
            storage=storage,
            keyservice_host=owner_shard,
            framework="tvm",
            attestation=attestation,
            config=default_semirt_config(),
        )
        model_id = f"model-{index}"
        owner.deploy_model(tiny_model, model_id, storage)
        owner.add_model_key(model_id)
        owner.grant_access(model_id, semirt.measurement, user.principal_id)
        user.add_request_key(model_id, semirt.measurement)
        enc = user.encrypt_request(model_id, semirt.measurement, tiny_input)
        enc_out = semirt.infer(enc, user.principal_id, model_id)
        outputs[index] = user.decrypt_response(model_id, semirt.measurement, enc_out)
        semirt.destroy()
    assert np.allclose(outputs[0], outputs[1], atol=1e-6)  # same model


def test_strong_isolation_plus_revocation(tiny_model, tiny_input):
    """The strictest build still enforces (and survives) revocation."""
    from repro.core.semirt_enclave import IsolationSettings

    env = SeSeMIEnvironment()
    owner = env.connect_owner()
    user = env.connect_user()
    isolation = IsolationSettings.strong(pinned_model="locked")
    semirt = env.launch_semirt("tvm", isolation=isolation)
    env.deploy(tiny_model, "locked", owner=owner, isolation=isolation).grant(user)
    first = user.decrypt_response(
        "locked", semirt.measurement,
        semirt.infer(
            user.encrypt_request("locked", semirt.measurement, tiny_input),
            user.principal_id, "locked",
        ),
    )
    assert np.allclose(first, tiny_model.run_reference(tiny_input).ravel(), atol=1e-5)
    owner.revoke_access("locked", semirt.measurement, user.principal_id)
    # Strong isolation re-fetches keys per request, so revocation bites
    # the very next request -- even on the same warm enclave.
    enc = user.encrypt_request("locked", semirt.measurement, tiny_input)
    with pytest.raises(AccessDenied):
        semirt.infer(enc, user.principal_id, "locked")
    semirt.destroy()