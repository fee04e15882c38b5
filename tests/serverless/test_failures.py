"""Failure injection: node draining, storage loss, stale sessions.

The threat model assumes a cloud that controls the software stack, so
robustness to infrastructure misbehaviour -- maintenance drains, missing
artifacts, restarted services -- is part of the system's contract.
"""

import numpy as np
import pytest

from repro.core.deployment import SeSeMIEnvironment
from repro.errors import StorageError
from repro.serverless.action import ActionSpec, Request, round_memory_budget
from repro.serverless.container import ActionRuntime
from repro.serverless.platform import ServerlessPlatform
from repro.sim.core import Simulation

MB = 1024 * 1024
BUDGET = round_memory_budget(100 * MB)


class Quick(ActionRuntime):
    def startup(self, ctx):
        yield ctx.sim.timeout(0.1)

    def handle(self, ctx, request):
        yield ctx.sim.timeout(0.2)
        return None, "hot", {}


def build_two_nodes():
    sim = Simulation()
    platform = ServerlessPlatform(sim, num_nodes=2, node_memory=BUDGET)
    spec = ActionSpec(name="f", image="i", memory_budget=BUDGET, concurrency=1)
    platform.deploy(spec, Quick)
    return sim, platform


def run_requests(sim, platform, count, gap=1.0):
    results = []

    def driver(sim):
        for _ in range(count):
            done = platform.invoke("f", Request(model_id="m", user_id="u"))
            result = yield done
            results.append(result)
            yield sim.timeout(gap)

    sim.process(driver(sim))
    sim.run(until=5000)
    return results


def test_drained_node_gets_no_new_containers():
    sim, platform = build_two_nodes()
    controller = platform.controller
    target = platform.nodes[0]
    controller.drain_node(target)
    results = run_requests(sim, platform, 3)
    assert all(r.node_id != target.node_id for r in results)
    assert controller.is_draining(target)


def test_drain_reclaims_idle_containers():
    sim, platform = build_two_nodes()
    controller = platform.controller
    observed = []

    def driver(sim):
        result = yield platform.invoke("f", Request(model_id="m", user_id="u"))
        node = next(n for n in platform.nodes if n.node_id == result.node_id)
        observed.append(node.memory_used)
        controller.drain_node(node)
        observed.append(node.memory_used)

    sim.process(driver(sim))
    sim.run(until=5000)
    before, after = observed
    assert before > 0
    assert after == 0


def test_busy_container_drains_after_completion():
    sim, platform = build_two_nodes()
    controller = platform.controller
    collected = []

    def driver(sim):
        done = platform.invoke("f", Request(model_id="m", user_id="u"))
        yield sim.timeout(0.15)  # mid-startup/serve
        served_node = None
        # Drain whichever node hosts the container (home-node hashing).
        for candidate in platform.nodes:
            if candidate.memory_used:
                controller.drain_node(candidate)
                served_node = candidate
        result = yield done
        collected.append((result, served_node))

    sim.process(driver(sim))
    sim.run(until=5000)
    result, node = collected[0]
    assert result.response is None  # request completed despite the drain
    assert node.memory_used == 0    # container reclaimed right after


def test_undrain_restores_scheduling():
    sim, platform = build_two_nodes()
    controller = platform.controller
    for node in platform.nodes:
        controller.drain_node(node)

    pending_probe = []

    def driver(sim):
        done = platform.invoke("f", Request(model_id="m", user_id="u"))
        yield sim.timeout(5.0)
        pending_probe.append(done.triggered)  # stuck: fully drained
        controller.undrain_node(platform.nodes[0])
        result = yield done
        pending_probe.append(result.node_id)

    sim.process(driver(sim))
    sim.run(until=5000)
    assert pending_probe[0] is False
    assert pending_probe[1] == platform.nodes[0].node_id


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
