"""Cross-feature integration: the whole system working together.

These tests wire multiple features at once -- the sharded KeyService
fleet, the FnPacker service on the simulated cluster, quantized model
artifacts through the functional enclaves -- the combinations a real
deployment would actually run.
"""

import numpy as np
import pytest

from repro.core.deployment import SeSeMIEnvironment
from repro.routing import FnPool
from repro.core.keyfleet import KeyServiceFleet
from repro.core.packer_service import FnPackerService
from repro.core.simbridge import servable_map
from repro.errors import AccessDenied
from repro.experiments.common import make_testbed
from repro.mlrt.quantize import load_quantized, quantize_model
from repro.mlrt.zoo import build_mobilenet, profile
from repro.serverless.telemetry import MetricsRegistry


def test_quantized_model_through_the_secure_path():
    """Owner quantizes, encrypts, deploys; user infers -- end to end."""
    env = SeSeMIEnvironment()
    owner = env.connect_owner()
    user = env.connect_user()
    semirt = env.launch_semirt("tflm")
    float_model = build_mobilenet()
    # The owner ships the quantized artifact (reconstituted to a model
    # the runtimes execute; the wire artifact is 4x smaller pre-crypto).
    quant_blob = quantize_model(float_model)
    quantized = load_quantized(quant_blob)
    env.deploy(quantized, "quant-model", owner=owner, framework="tflm").grant(user)
    x = np.random.default_rng(0).standard_normal(float_model.input_spec.shape)
    x = x.astype(np.float32)
    enc = user.encrypt_request("quant-model", semirt.measurement, x)
    out = user.decrypt_response(
        "quant-model", semirt.measurement,
        semirt.infer(enc, user.principal_id, "quant-model"),
    )
    reference = float_model.run_reference(x).ravel()
    assert np.abs(out - reference).max() < 0.05  # quantization noise only


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
    assert np.allclose(outputs[0], outputs[1], atol=1e-6)  # same model


def test_fnpacker_cluster_with_telemetry():
    """FnPackerService + telemetry on an 8-node cluster."""
    metrics = MetricsRegistry()
    bed = make_testbed(num_nodes=8)
    bed.controller.metrics = metrics
    model_ids = ("hot-model", "cold-model")
    pool = FnPool(name="mixed", models=model_ids, memory_budget=0)
    models = servable_map([(m, profile("DSNET"), "tvm") for m in model_ids])
    service = FnPackerService(bed.sim, bed.controller, pool, models, bed.cost)

    def driver(sim):
        # steady traffic to the hot model, a sprinkle to the cold one
        for i in range(40):
            service.invoke("hot-model", "alice")
            if i % 10 == 0:
                service.invoke("cold-model", "bob")
            yield sim.timeout(0.5)

    bed.sim.process(driver(bed.sim))
    bed.sim.run()
    snapshot = metrics.snapshot()
    assert snapshot["requests.completed"] == 44
    assert service.stats["hot-model"].completed == 40
    assert metrics.histogram("latency.seconds").count == 44
    # Hot traffic pinned an endpoint at some point; everything drained.
    assert service.in_flight == 0
    assert metrics.time_series("containers.active").last == 0


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