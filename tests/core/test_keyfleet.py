"""Sharded KeyService fleet and model-key rotation."""

import numpy as np
import pytest

from repro.core.client import OwnerClient
from repro.core.deployment import SeSeMIEnvironment
from repro.core.keyfleet import KeyServiceFleet
from repro.core.stages import Stage
from repro.errors import ConfigError
from repro.sgx.attestation import AttestationService


@pytest.fixture(scope="module")
def fleet():
    attestation = AttestationService()
    return attestation, KeyServiceFleet(3, attestation)


def test_fleet_validation():
    with pytest.raises(ConfigError):
        KeyServiceFleet(0, AttestationService())


def test_all_shards_share_identity(fleet):
    _, ks_fleet = fleet
    assert ks_fleet.identical_identities()
    assert ks_fleet.measurement == ks_fleet.shards[0].measurement


def test_shard_placement_deterministic(fleet):
    _, ks_fleet = fleet
    pid = "ab" * 32
    assert ks_fleet.shard_for(pid) is ks_fleet.shard_for(pid)
    assert 0 <= ks_fleet.shard_index_for(pid) < 3


def test_shards_isolate_principals(fleet):
    """A principal registered on one shard is unknown to the others."""
    attestation, ks_fleet = fleet
    owner = OwnerClient("sharded-owner")
    # Register on the shard the fleet assigns for this identity.
    home = ks_fleet.shard_for(owner.identity_key.fingerprint)
    owner.connect(home, attestation, ks_fleet.measurement)
    owner.register()
    others = [s for s in ks_fleet.shards if s is not home]
    # The same op against a different shard fails: unknown identity.
    stranger = OwnerClient("sharded-owner")
    stranger.identity_key = owner.identity_key
    stranger.connect(others[0], attestation, ks_fleet.measurement)
    stranger.principal_id = owner.identity_key.fingerprint
    from repro.crypto.gcm import AESGCM
    from repro.core import wire

    blob = AESGCM(bytes(owner.identity_key)).seal(
        wire.dumps({"model_id": "m", "model_key": b"k" * 16}),
        aad=b"add_model_key",
    )
    reply = stranger.connection.call(
        {"op": "add_model_key", "oid": stranger.principal_id, "blob": blob}
    )
    assert not reply["ok"]


def test_key_rotation_invalidates_stale_keys(tiny_model, tiny_input):
    """After rotation, enclaves must re-fetch; old artifacts are gone."""
    env = SeSeMIEnvironment()
    owner = env.connect_owner()
    user = env.connect_user()
    semirt = env.launch_semirt("tvm")
    env.deploy(tiny_model, "rotating", owner=owner).grant(user)

    def infer_on(host, model_id):
        enc = user.encrypt_request(model_id, host.measurement, tiny_input)
        return user.decrypt_response(
            model_id, host.measurement,
            host.infer(enc, user.principal_id, model_id),
        )

    before = infer_on(semirt, "rotating")

    owner.rotate_model_key("rotating", tiny_model, env.storage)

    # A fresh enclave fetches the NEW key and serves correctly.
    fresh = env.launch_semirt("tvm", node_id="post-rotation")
    user.add_request_key("rotating", fresh.measurement)
    owner.grant_access("rotating", fresh.measurement, user.principal_id)
    after = infer_on(fresh, "rotating")
    assert np.allclose(before, after, atol=1e-5)

    # The already-warm enclave keeps serving from its cached model copy
    # (hot path) -- rotation does not interrupt in-flight service ...
    still = infer_on(semirt, "rotating")
    assert np.allclose(still, before, atol=1e-5)

    # ... and because the single-pair key cache is evicted together with
    # the model, a reload can never pair the stale key with the new
    # artifact: the enclave re-fetches and decrypts the rotated artifact.
    env.deploy(tiny_model, "other", owner=owner).grant(user)
    infer_on(semirt, "other")  # evicts 'rotating' + keys
    reloaded = infer_on(semirt, "rotating")
    assert semirt.code.last_plan.needs(Stage.KEY_RETRIEVAL)
    assert np.allclose(reloaded, before, atol=1e-5)
    semirt.destroy()
    fresh.destroy()


def test_shard_assignment_stable_across_fleet_instances():
    """Same fleet size => same placement, even on a different fleet."""
    first = KeyServiceFleet(3, AttestationService())
    second = KeyServiceFleet(3, AttestationService())
    for pid in ("ab" * 32, "01" * 32, "fe" * 32):
        assert first.shard_index_for(pid) == second.shard_index_for(pid)


def test_homes_are_primary_plus_next_shard(fleet):
    _, ks_fleet = fleet
    pid = "ab" * 32
    primary = ks_fleet.shard_index_for(pid)
    assert ks_fleet.homes_for(pid) == [primary, (primary + 1) % 3]


def test_single_shard_fleet_has_one_home():
    lone = KeyServiceFleet(1, AttestationService())
    assert lone.homes_for("ab" * 32) == [lone.shard_index_for("ab" * 32)]


def test_sealed_records_survive_shard_kill_and_restart():
    """Kill/restart of a shard round-trips its stores through sealing."""
    attestation = AttestationService()
    ks_fleet = KeyServiceFleet(2, attestation)
    owner = OwnerClient("sealed-owner")
    home_index = ks_fleet.shard_index_for(owner.identity_key.fingerprint)
    shard = ks_fleet.shards[home_index]
    owner.connect(shard, attestation, ks_fleet.measurement)
    owner.register()
    assert shard.code.registered_principals == 1

    ks_fleet.kill_shard(home_index)
    assert not shard.alive
    with pytest.raises(Exception):
        owner.connection.call({"op": "register", "identity_key": b"x" * 16})

    ks_fleet.restart_shard(home_index)
    assert shard.alive
    # the restarted enclave recovered the sealed stores...
    assert shard.code.registered_principals == 1
    # ...and the owner can re-attest and operate again (old channel died
    # with the enclave, so a fresh connection is required)
    owner.connect(shard, attestation, ks_fleet.measurement)
    reply = owner.connection.call(
        {"op": "register", "identity_key": bytes(owner.identity_key)}
    )
    assert reply["ok"] and reply["id"] == owner.identity_key.fingerprint


def test_sealed_checkpoint_rejected_on_foreign_platform():
    """A checkpoint sealed by shard A cannot restore into shard B."""
    from repro.errors import SealingError

    ks_fleet = KeyServiceFleet(2, AttestationService())
    sealed = ks_fleet.shards[0].snapshot()
    with pytest.raises(SealingError):
        ks_fleet.shards[1].enclave.ecall("EC_RESTORE_STATE", sealed)


def test_failover_endpoint_reroutes_after_primary_death(fleet):
    """Handshakes land on the replica once the primary shard dies."""
    from repro.core.keyfleet import FailoverEndpoint
    from repro.errors import TransportError

    attestation = AttestationService()
    ks_fleet = KeyServiceFleet(2, attestation)
    owner = OwnerClient("failover-owner")
    pid = owner.identity_key.fingerprint
    primary, replica = ks_fleet.homes_for(pid)
    endpoint = FailoverEndpoint(ks_fleet, pid)

    owner.connect(endpoint, attestation, ks_fleet.measurement)
    owner.register()
    assert ks_fleet.shards[primary].code.registered_principals == 1

    ks_fleet.kill_shard(primary)
    # the established channel lived inside the dead enclave
    with pytest.raises(TransportError):
        owner.connection.call({"op": "register", "identity_key": b"x" * 16})
    # a fresh handshake transparently lands on the replica
    owner.connect(endpoint, attestation, ks_fleet.measurement)
    owner.register()
    assert endpoint.failovers == 1
    assert ks_fleet.shards[replica].code.registered_principals == 1


def test_all_homes_down_is_a_transport_error():
    from repro.core.keyfleet import FailoverEndpoint
    from repro.errors import TransportError

    ks_fleet = KeyServiceFleet(2, AttestationService())
    pid = "ab" * 32
    for index in ks_fleet.homes_for(pid):
        ks_fleet.kill_shard(index)
    endpoint = FailoverEndpoint(ks_fleet, pid)
    with pytest.raises(TransportError):
        endpoint.handshake({})
