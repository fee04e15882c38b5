"""SeMIRT enclave runtime: paths, ECALL surface, isolation builds."""

from functools import partial

import numpy as np
import pytest

from repro.core.deployment import SeSeMIEnvironment
from repro.core.semirt_enclave import (
    IsolationSettings,
    default_semirt_config,
    expected_semirt_measurement,
)
from repro.core.stages import InvocationKind, Stage
from repro.errors import (
    AccessDenied,
    EnclaveError,
    InvocationError,
    ReproError,
)
from repro.mlrt.zoo import build_densenet


def run_infer(user, semirt, model_id, x):
    """Encrypt, invoke the host directly, decrypt -- the raw request path."""
    enc = user.encrypt_request(model_id, semirt.measurement, x)
    enc_response = semirt.infer(enc, user.principal_id, model_id)
    return user.decrypt_response(model_id, semirt.measurement, enc_response)


@pytest.fixture(scope="module")
def setup(tiny_model):
    env = SeSeMIEnvironment()
    owner = env.connect_owner()
    user = env.connect_user()
    semirt = env.launch_semirt("tvm")
    env.deploy(tiny_model, "model-a", owner=owner).grant(user)
    yield env, owner, user, semirt
    semirt.destroy()


def make_input(model, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(model.input_spec.shape).astype(np.float32)


def test_first_invocation_is_warm_then_hot(setup, tiny_model):
    env, owner, user, semirt = setup
    x = make_input(tiny_model)
    out = run_infer(user, semirt, "model-a", x)
    first_kind = semirt.code.last_plan.kind
    out2 = run_infer(user, semirt, "model-a", x)
    assert semirt.code.last_plan.kind == InvocationKind.HOT
    assert np.allclose(out, out2)
    assert first_kind in (InvocationKind.WARM, InvocationKind.HOT)


def test_inference_matches_plaintext_reference(setup, tiny_model):
    env, owner, user, semirt = setup
    x = make_input(tiny_model, seed=5)
    out = run_infer(user, semirt, "model-a", x)
    assert np.allclose(out, tiny_model.run_reference(x).ravel(), atol=1e-5)


def test_model_switch_takes_warm_path(setup):
    env, owner, user, semirt = setup
    second_model = build_densenet()
    env.deploy(second_model, "model-b", owner=owner).grant(user)
    x = make_input(second_model)
    run_infer(user, semirt, "model-b", x)
    plan = semirt.code.last_plan
    assert plan.kind == InvocationKind.WARM
    assert plan.needs(Stage.MODEL_LOADING)


def test_ecall_surface_is_figure5(setup):
    # The Figure 5 surface plus the extensions: EC_MODEL_INF_BATCH
    # (micro-batching), EC_INVALIDATE_KEYS (revocation/re-grant push for
    # the key memo), and the streaming trio (docs/streaming.md) --
    # EC_MODEL_INF_STREAM / EC_STREAM_STEP / EC_STREAM_CLOSE.  Anything
    # else appearing here is a surface leak.
    _, _, _, semirt = setup
    assert semirt.enclave.exported_ecalls == {
        "EC_MODEL_INF",
        "EC_MODEL_INF_BATCH",
        "EC_MODEL_INF_STREAM",
        "EC_STREAM_STEP",
        "EC_STREAM_CLOSE",
        "EC_GET_OUTPUT",
        "EC_CLEAR_EXEC_CTX",
        "EC_INVALIDATE_KEYS",
    }


def test_output_cleared_after_fetch(setup, tiny_model):
    env, owner, user, semirt = setup
    run_infer(user, semirt, "model-a", make_input(tiny_model))
    # infer() already called EC_CLEAR_EXEC_CTX; no stale context remains
    # and released tickets cannot be replayed.
    assert semirt.code.pending_outputs == 0
    with pytest.raises(EnclaveError, match="no output pending"):
        semirt.enclave.ecall("EC_GET_OUTPUT", 1)


def test_unauthorized_user_denied(setup, tiny_model):
    env, owner, user, semirt = setup
    intruder = env.connect_user("intruder")
    intruder.add_request_key("model-a", semirt.measurement)
    enc = intruder.encrypt_request(
        "model-a", semirt.measurement, make_input(tiny_model)
    )
    with pytest.raises(AccessDenied):
        semirt.infer(enc, intruder.principal_id, "model-a")


def test_request_under_wrong_key_rejected(setup, tiny_model):
    env, owner, user, semirt = setup
    from repro.crypto.gcm import AESGCM
    from repro.crypto.keys import SymmetricKey

    forged = AESGCM(bytes(SymmetricKey.generate())).seal(
        b"whatever", aad=b"sesemi-requestmodel-a"
    )
    with pytest.raises((InvocationError, ReproError)):
        semirt.infer(forged, user.principal_id, "model-a")


def test_tampered_model_artifact_detected(setup, tiny_model):
    env, owner, user, semirt = setup
    blob = bytearray(env.storage.get("models/model-a"))
    blob[len(blob) // 2] ^= 0xFF
    env.storage.put("models/model-a", bytes(blob))
    fresh = env.launch_semirt("tvm", node_id="tamper-node")
    user.add_request_key("model-a", fresh.measurement)
    owner.grant_access("model-a", fresh.measurement, user.principal_id)
    enc = user.encrypt_request("model-a", fresh.measurement, make_input(tiny_model))
    with pytest.raises(InvocationError, match="tampered|authentication"):
        fresh.infer(enc, user.principal_id, "model-a")
    fresh.destroy()
    # restore for other tests
    owner.deploy_model(tiny_model, "model-a", env.storage)
    owner.add_model_key("model-a")


def test_measurement_derivable_independently(setup):
    env, _, _, semirt = setup
    derived = expected_semirt_measurement(
        "tvm", env.keyservice.measurement, default_semirt_config()
    )
    assert derived == semirt.measurement


def test_framework_changes_identity(setup):
    env, _, _, semirt = setup
    tflm = expected_semirt_measurement(
        "tflm", env.keyservice.measurement, default_semirt_config()
    )
    assert tflm != semirt.measurement


def test_isolation_settings_change_identity(setup):
    env, _, _, semirt = setup
    strong = expected_semirt_measurement(
        "tvm",
        env.keyservice.measurement,
        default_semirt_config(),
        IsolationSettings.strong(),
    )
    assert strong != semirt.measurement


class TestStrongIsolation:
    @pytest.fixture(scope="class")
    def strong_setup(self, tiny_model):
        env = SeSeMIEnvironment()
        owner = env.connect_owner()
        user = env.connect_user()
        isolation = IsolationSettings.strong(pinned_model="pinned")
        semirt = env.launch_semirt("tvm", isolation=isolation)
        env.deploy(
            tiny_model, "pinned", owner=owner, isolation=isolation
        ).grant(user)
        yield env, owner, user, semirt
        semirt.destroy()

    def test_pinned_model_enforced(self, strong_setup, tiny_model):
        env, owner, user, semirt = strong_setup
        enc = user.encrypt_request(
            "other-model", semirt.measurement, make_input(tiny_model)
        )
        with pytest.raises(InvocationError, match="pinned"):
            semirt.infer(enc, user.principal_id, "other-model")

    def test_sequential_build_has_single_tcs(self, strong_setup):
        _, _, _, semirt = strong_setup
        assert semirt.enclave.config.tcs_count == 1

    def test_no_hot_path_under_strong_isolation(self, strong_setup, tiny_model):
        env, owner, user, semirt = strong_setup
        x = make_input(tiny_model)
        run_infer(user, semirt, "pinned", x)
        run_infer(user, semirt, "pinned", x)
        # With the key cache and runtime reuse off, there is no HOT path.
        assert semirt.code.last_plan.kind == InvocationKind.WARM
        assert semirt.code.last_plan.needs(Stage.KEY_RETRIEVAL)
        assert semirt.code.last_plan.needs(Stage.RUNTIME_INIT)

    def test_results_still_correct(self, strong_setup, tiny_model):
        env, owner, user, semirt = strong_setup
        x = make_input(tiny_model, seed=9)
        out = run_infer(user, semirt, "pinned", x)
        assert np.allclose(out, tiny_model.run_reference(x).ravel(), atol=1e-5)


# -- EC_MODEL_INF is EC_MODEL_INF_BATCH of one ----------------------------------


def _solo_host(tiny_model, isolation=None, tcs_count=2):
    env = SeSeMIEnvironment()
    config = default_semirt_config(tcs_count=tcs_count)
    env.deploy(
        tiny_model, "eq", owner="owner", config=config, isolation=isolation
    ).grant("user")
    host = env.launch_semirt("tvm", config=config, isolation=isolation)
    return env.user("user"), host


def test_single_and_size_one_batch_are_the_same_call(tiny_model):
    """Ticket and context accounting, plaintext, capacity refusal: the
    two entry points are indistinguishable for one request."""
    user, host = _solo_host(tiny_model)
    uid, x = user.principal_id, make_input(tiny_model, seed=3)
    seal = partial(user.encrypt_request, "eq", host.measurement, x)
    want = tiny_model.run_reference(x).ravel()

    single = host.enclave.ecall("EC_MODEL_INF", seal(), uid, "eq")
    assert host.code.pending_outputs == 1
    (batched,) = host.enclave.ecall("EC_MODEL_INF_BATCH", [seal()], uid, "eq")
    assert host.code.pending_outputs == 2
    assert batched == single + 1  # one ticket counter, one table
    for ticket in (single, batched):
        plain = user.decrypt_response(
            "eq", host.measurement, host.enclave.ecall("EC_GET_OUTPUT", ticket)
        )
        assert np.allclose(plain, want, atol=1e-5)

    # the table (tcs_count=2) is full: both refuse alike, committing nothing
    for name, payload in (("EC_MODEL_INF", seal()), ("EC_MODEL_INF_BATCH", [seal()])):
        with pytest.raises(EnclaveError, match="execution contexts"):
            host.enclave.ecall(name, payload, uid, "eq")
    assert host.code.pending_outputs == 2
    for ticket in (single, batched):
        host.enclave.ecall("EC_CLEAR_EXEC_CTX", ticket)
    assert host.code.pending_outputs == 0
    host.destroy()


def test_batch_log_rows_are_for_real_batches_only(tiny_model):
    user, host = _solo_host(tiny_model)
    uid, x = user.principal_id, make_input(tiny_model)
    seal = partial(user.encrypt_request, "eq", host.measurement, x)
    single = host.enclave.ecall("EC_MODEL_INF", seal(), uid, "eq")
    host.enclave.ecall("EC_CLEAR_EXEC_CTX", single)
    for ticket in host.enclave.ecall("EC_MODEL_INF_BATCH", [seal()], uid, "eq"):
        host.enclave.ecall("EC_CLEAR_EXEC_CTX", ticket)
    assert list(host.code.batch_log) == []
    for ticket in host.enclave.ecall("EC_MODEL_INF_BATCH", [seal(), seal()], uid, "eq"):
        host.enclave.ecall("EC_CLEAR_EXEC_CTX", ticket)
    assert list(host.code.batch_log) == [(uid, "eq", 2)]
    host.destroy()


def test_sequential_build_accepts_a_batch_of_one_and_refuses_two(tiny_model):
    user, host = _solo_host(tiny_model, IsolationSettings.strong(), tcs_count=1)
    uid, x = user.principal_id, make_input(tiny_model)
    seal = partial(user.encrypt_request, "eq", host.measurement, x)
    (ticket,) = host.enclave.ecall("EC_MODEL_INF_BATCH", [seal()], uid, "eq")
    host.enclave.ecall("EC_CLEAR_EXEC_CTX", ticket)
    with pytest.raises(InvocationError, match="sequential"):
        host.enclave.ecall("EC_MODEL_INF_BATCH", [seal(), seal()], uid, "eq")
    assert host.code.pending_outputs == 0
    host.destroy()
