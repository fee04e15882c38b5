"""The session API: deploy/grant/session, traces, and shared instances."""

import time

import numpy as np
import pytest

from repro.core.client import UserSession
from repro.core.deployment import ModelHandle, SeSeMIEnvironment
from repro.core.stages import InvocationKind, Stage
from repro.errors import AccessDenied, SeSeMIError
from repro.mlrt.zoo import build_tinylm
from repro.obs import analysis


@pytest.fixture(scope="module")
def fresh_env() -> SeSeMIEnvironment:
    """A private environment so span assertions see only this module."""
    return SeSeMIEnvironment()


@pytest.fixture(scope="module")
def handle(fresh_env, tiny_model) -> ModelHandle:
    return fresh_env.deploy(tiny_model, "sess-model", owner="sess-owner")


def test_deploy_uploads_and_returns_handle(fresh_env, handle):
    assert isinstance(handle, ModelHandle)
    assert handle.measurement == fresh_env.expected_semirt("tvm")
    assert fresh_env.storage.get("models/sess-model")  # ciphertext landed


def test_owner_and_user_names_are_cached(fresh_env):
    owner = fresh_env.owner("sess-owner")
    assert owner is fresh_env.owner("sess-owner")
    user = fresh_env.user("cache-check")
    assert user is fresh_env.user("cache-check")
    assert fresh_env.user(user) is user


def test_grant_then_infer_round_trip(fresh_env, handle, tiny_model, tiny_input):
    handle.grant("alice")
    with fresh_env.session("alice", "sess-model") as session:
        assert session.semirt is None  # launched lazily
        out = session.infer(tiny_input)
        assert session.semirt is not None
        reference = tiny_model.run_reference(tiny_input).ravel()
        assert np.allclose(out, reference, atol=1e-5)
    assert session.semirt is None  # context exit reclaimed the enclave


def test_wrong_sized_input_is_a_bad_request(fresh_env, handle, tiny_model, tiny_input):
    """The enclave refuses it as ``InvocationError`` before the runtime sees
    it (it used to leave the ECALL as numpy's "cannot reshape array")."""
    from repro.errors import InvocationError

    handle.grant("carol")
    with fresh_env.session("carol", "sess-model") as session:
        for shape in [(1, 8, 8, 3), (2, 16, 16, 3), (7,)]:
            with pytest.raises(InvocationError, match="not a float32 tensor of the model"):
                session.infer(np.zeros(shape, dtype=np.float32))
        assert session.semirt.code.pending_outputs == 0
        out = session.infer(tiny_input)
        assert np.allclose(out, tiny_model.run_reference(tiny_input).ravel(), atol=1e-5)


def test_ungranted_user_is_refused(fresh_env, handle, tiny_input):
    fresh_env.connect_user("mallory")
    with fresh_env.session("mallory", "sess-model") as session:
        with pytest.raises(AccessDenied):
            session.infer(tiny_input)


def test_revoke_blocks_future_sessions(fresh_env, handle, tiny_input):
    handle.grant("bob")
    with fresh_env.session("bob", "sess-model") as session:
        session.infer(tiny_input)
    handle.revoke("bob")
    with fresh_env.session("bob", "sess-model") as session:
        with pytest.raises(AccessDenied):
            session.infer(tiny_input)


def test_session_requires_registered_user(fresh_env):
    from repro.core.client import UserClient

    with pytest.raises(SeSeMIError):
        UserSession(None, UserClient("ghost"), "sess-model", fresh_env.expected_semirt("tvm"))


def test_cold_trace_covers_all_nine_stages(tiny_model, tiny_input):
    """Acceptance: one functional inference -> one nine-stage span tree."""
    env = SeSeMIEnvironment()
    env.deploy(tiny_model, "m", owner="o").grant("u")
    with env.session("u", "m") as session:
        session.infer(tiny_input)
        session.infer(tiny_input)
    spans = env.tracer.finished_spans()
    cold, hot = analysis.request_roots(spans)
    tree_stages = analysis.stage_seconds(spans, cold)
    assert set(tree_stages) == {stage.value for stage in Stage}
    assert len({s.trace_id for s in analysis.subtree(spans, cold)}) == 1
    assert cold.attributes["flavor"] == "cold"
    assert hot.attributes["flavor"] == "hot"
    hot_stages = analysis.stage_seconds(spans, hot)
    assert Stage.ENCLAVE_INIT.value not in hot_stages
    assert Stage.MODEL_INFERENCE.value in hot_stages


def _traced(tracer, call):
    """Run ``call``; return the spans it recorded once all of them ended."""
    tracer.clear()
    call()
    deadline = time.monotonic() + 10
    while not all(s.ended for s in tracer.spans) and time.monotonic() < deadline:
        time.sleep(0.005)  # worker-side spans may end just after the result
    spans = list(tracer.spans)
    assert all(s.ended for s in spans)
    return spans


def test_async_session_requests_are_one_trace_each(tiny_model, tiny_input):
    """``submit`` and ``stream`` open one root each when none is ambient:
    the worker's ECALL spans and the client's decrypt spans join it."""
    env = SeSeMIEnvironment()
    env.deploy(tiny_model, "m", owner="o").grant("u")
    env.deploy(build_tinylm(seed=7), "lm", owner="o").grant("u")
    with env.session("u", "m") as session, env.session("u", "lm") as lm:
        session.infer(tiny_input)  # cold starts, outside the traced calls
        lm.stream([3, 1, 4], 1).result(timeout_s=30)
        cases = {
            "request": _traced(env.tracer, lambda: session.submit(tiny_input).result(timeout_s=30)),
            "stream": _traced(env.tracer, lambda: list(lm.stream([3, 1, 4], 12))),
            "request_batch": _traced(env.tracer, lambda: session.infer_many([tiny_input] * 2)),
        }
    for root_name, spans in cases.items():
        (root,) = [s for s in spans if s.parent_id is None]
        assert root.name == root_name and root.status == "ok"
        assert {s.trace_id for s in spans} == {root.trace_id}
    names = [s.name for s in cases["stream"]]
    assert names.count("decrypt_frame") == 12
    assert names.count("ecall:EC_STREAM_STEP") == 11
    assert "decrypt_response" in [s.name for s in cases["request"]]
    assert "request" not in [s.name for s in cases["request_batch"]]


def test_handle_session_shortcut(fresh_env, handle, tiny_input):
    handle.grant("carol")
    with handle.session("carol") as session:
        out = session.infer(tiny_input)
    assert out is not None


def test_warm_path_after_runtime_reset(fresh_env, handle, tiny_input):
    handle.grant("dave")
    with fresh_env.session("dave", "sess-model") as session:
        session.infer(tiny_input)
        session.infer(tiny_input)
        assert session.semirt.code.last_plan.kind == InvocationKind.HOT


# -- shared (attached) instances -------------------------------------------------


def test_session_attaches_to_shared_instance(fresh_env, handle, tiny_input):
    """An explicitly launched host serves a session-API grant."""
    handle.grant("erin")
    semirt = fresh_env.launch_semirt("tvm")
    assert semirt.measurement == handle.measurement
    with fresh_env.session("erin", "sess-model", semirt=semirt) as session:
        out = session.infer(tiny_input)
        assert session.semirt is semirt
    assert out is not None
    # closing an attached session leaves the shared host running
    assert semirt.enclave.alive
    semirt.destroy()


def test_deprecated_shims_are_gone(fresh_env):
    """The PR-1 authorize/infer shims completed their deprecation cycle."""
    assert not hasattr(SeSeMIEnvironment, "authorize")
    assert not hasattr(SeSeMIEnvironment, "infer")
