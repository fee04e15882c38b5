"""Live hot-path micro-batching: the accumulator, the futures, the rule.

These tests drive the functional twin's batch plane end-to-end: the
``SchedulerConfig.batch`` accumulator in :class:`SemirtHost`, the
``EC_MODEL_INF_BATCH`` ECALL and its in-enclave single-``<uid, M_oid>``
security rule, the :class:`InferenceFuture` cancellation contract, and
the leader-crash fault site (``semirt:batch``).
"""

import threading
import time

import numpy as np
import pytest

from repro.core.batching import BatchPolicy
from repro.core.deployment import SeSeMIEnvironment
from repro.core.semirt import SchedulerConfig
from repro.core.semirt_enclave import IsolationSettings, default_semirt_config
from repro.errors import (
    EnclaveError,
    FaultInjected,
    InvocationError,
    RequestCancelled,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from tests.conftest import held_ecalls

MODEL_ID = "batch-model"


def _launch(
    tiny_model,
    *,
    users=("user",),
    policy=BatchPolicy(batch_window_s=0.25, max_batch=4),
    injector=None,
):
    """One 4-TCS host with the batch accumulator armed."""
    env = SeSeMIEnvironment(injector=injector)
    config = default_semirt_config(tcs_count=4)
    handle = env.deploy(
        tiny_model, MODEL_ID, owner="owner", framework="tflm", config=config
    )
    for name in users:
        handle.grant(name)
    scheduler = SchedulerConfig(queue_depth=64, batch=policy)
    host = env.launch_semirt("tflm", config=config, scheduler=scheduler)
    return env, host


def _uid(env, name):
    return env.user(name).principal_id


def _encrypt(env, host, name, x):
    return env.user(name).encrypt_request(MODEL_ID, host.measurement, x)


def _decrypt(env, host, name, enc_response):
    return env.user(name).decrypt_response(
        MODEL_ID, host.measurement, enc_response
    )


def test_a_full_window_is_one_batch_ecall_with_the_singles_outputs(
    tiny_model, tiny_input
):
    """k same-pair hot requests inside one window ride one
    ``EC_MODEL_INF_BATCH`` of size k, and each output is byte-identical
    to the single-request path's."""
    k = 4
    env, host = _launch(tiny_model, policy=BatchPolicy(batch_window_s=30.0, max_batch=k))
    uid = _uid(env, "user")
    # the first serve takes the single path and makes the pair hot
    single = _decrypt(
        env, host, "user",
        host.infer(_encrypt(env, host, "user", tiny_input), uid, MODEL_ID),
    )
    leader = host.submit(_encrypt(env, host, "user", tiny_input), uid, MODEL_ID)
    # followers must find the leader's window open (else they lead their own)
    deadline = time.monotonic() + 10
    while host._forming is None:
        assert time.monotonic() < deadline, "the leader never opened a window"
        time.sleep(0.001)
    futures = [leader] + [
        host.submit(_encrypt(env, host, "user", tiny_input), uid, MODEL_ID)
        for _ in range(k - 1)
    ]
    # a full batch closes the window at once: the 30 s are never waited
    outputs = [
        _decrypt(env, host, "user", future.result(timeout_s=10)) for future in futures
    ]
    assert list(host.code.batch_log) == [(uid, MODEL_ID, k)]
    assert all(plain.tobytes() == single.tobytes() for plain in outputs)
    host.destroy()


def test_mixed_pairs_never_share_a_batch_ecall(tiny_model, tiny_input):
    """Two users on one host: every batch row names exactly one pair."""
    env, host = _launch(tiny_model, users=("user-a", "user-b"))
    uid_a, uid_b = _uid(env, "user-a"), _uid(env, "user-b")
    expected = tiny_model.run_reference(tiny_input).ravel()
    # warm serve makes <user-a, model> the hot pair
    out = host.infer(_encrypt(env, host, "user-a", tiny_input), uid_a, MODEL_ID)
    assert np.allclose(_decrypt(env, host, "user-a", out), expected, atol=1e-5)

    futures = []
    for _ in range(4):  # a hot burst the leader can collect into one batch
        futures.append(
            (
                "user-a",
                host.submit(
                    _encrypt(env, host, "user-a", tiny_input), uid_a, MODEL_ID
                ),
            )
        )
    for _ in range(3):  # a different pair: must never ride along
        futures.append(
            (
                "user-b",
                host.submit(
                    _encrypt(env, host, "user-b", tiny_input), uid_b, MODEL_ID
                ),
            )
        )
    for name, future in futures:
        plain = _decrypt(env, host, name, future.result(timeout_s=30))
        assert np.allclose(plain, expected, atol=1e-5), name

    assert host.code.batch_log, "the hot burst never produced a batch ECALL"
    pairs = {(uid, model_id) for uid, model_id, _ in host.code.batch_log}
    assert pairs <= {(uid_a, MODEL_ID), (uid_b, MODEL_ID)}
    # every row names one pair; had uids ever mixed inside one ECALL the
    # foreign payload would have failed AEAD and aborted the whole batch
    host.destroy()


def test_enclave_refuses_foreign_ciphertext_in_a_batch(tiny_model, tiny_input):
    """The security rule lives in the enclave: foreign payloads abort the
    whole batch before any execution context is committed."""
    env, host = _launch(tiny_model, users=("user-a", "user-b"))
    enc_a = _encrypt(env, host, "user-a", tiny_input)
    enc_b = _encrypt(env, host, "user-b", tiny_input)
    uid_a = _uid(env, "user-a")
    with pytest.raises(InvocationError, match="does not authenticate"):
        host.enclave.ecall("EC_MODEL_INF_BATCH", [enc_a, enc_b], uid_a, MODEL_ID)
    assert host.code.pending_outputs == 0  # all-or-nothing: nothing committed
    assert list(host.code.batch_log) == []
    with pytest.raises(InvocationError, match="enc_requests': length 0 is below 1"):
        host.enclave.ecall("EC_MODEL_INF_BATCH", [], uid_a, MODEL_ID)
    host.destroy()


def test_sequential_build_refuses_batches(tiny_model, tiny_input):
    """A sequential build promises no co-execution, so any batch > 1 is
    refused inside the enclave (and the host refuses to arm batching)."""
    env = SeSeMIEnvironment()
    isolation = IsolationSettings.strong()
    config = default_semirt_config(tcs_count=1)
    handle = env.deploy(
        tiny_model, MODEL_ID, owner="owner", framework="tflm",
        config=config, isolation=isolation,
    )
    handle.grant("user")
    host = env.launch_semirt("tflm", config=config, isolation=isolation)
    enc = env.user("user").encrypt_request(MODEL_ID, host.measurement, tiny_input)
    with pytest.raises(InvocationError, match="sequential"):
        host.enclave.ecall(
            "EC_MODEL_INF_BATCH", [enc, enc], _uid(env, "user"), MODEL_ID
        )
    with pytest.raises(EnclaveError, match="sequential"):
        env.launch_semirt(
            "tflm", config=config, isolation=isolation,
            scheduler=SchedulerConfig(batch=BatchPolicy()),
        )
    host.destroy()


class _BatchSiteCrasher(FaultInjector):
    """Crashes only at the ``semirt:batch`` site, never at submit."""

    def __init__(self):
        super().__init__(FaultPlan(rates={FaultKind.ENCLAVE_CRASH: 1.0}))
        self.arm()

    def crash_enclave(self, site):
        if site != "semirt:batch":
            return False
        return super().crash_enclave(site)


def test_leader_crash_mid_batch_leaves_no_follower_hung(tiny_model, tiny_input):
    injector = _BatchSiteCrasher()
    env, host = _launch(tiny_model, injector=injector)
    uid = _uid(env, "user")
    # warm serve (single path: no crash site on it) makes the pair hot
    host.infer(_encrypt(env, host, "user", tiny_input), uid, MODEL_ID)

    futures = []
    for _ in range(6):
        try:
            futures.append(
                host.submit(_encrypt(env, host, "user", tiny_input), uid, MODEL_ID)
            )
        except EnclaveError:
            break  # the batch already filled, crashed, and took the host down
    assert len(futures) >= 2, "the crash fired before a batch could even form"
    # every member and every request queued behind the dead host must
    # resolve promptly -- a hang here is the bug this test exists for
    for future in futures:
        with pytest.raises((FaultInjected, EnclaveError)):
            future.result(timeout_s=30)
    assert all(future.done() for future in futures)
    assert not host.enclave.alive
    assert any(
        record.site == "semirt:batch" for record in injector.records
    ), "the crash was not injected at the batch site"


def test_destroy_twice_retires_every_worker(tiny_model, tiny_input):
    """A second destroy() (two crashing leaders, or a crash racing the
    owner's teardown) must not eat the first call's shutdown sentinels:
    it returns cleanly, every worker exits, every future settles."""
    env, host = _launch(tiny_model, policy=None)
    uid = _uid(env, "user")
    host.infer(_encrypt(env, host, "user", tiny_input), uid, MODEL_ID)
    workers = [
        thread for thread in threading.enumerate()
        if thread.name.startswith(f"semirt-{host.enclave.enclave_id}-")
    ]
    assert len(workers) == 4

    with held_ecalls("EC_MODEL_INF") as gate:
        futures = [
            host.submit(_encrypt(env, host, "user", tiny_input), uid, MODEL_ID)
            for _ in range(6)
        ]
        gate.wait_entered(4)  # four parked inside their ECALL, two still queued
        host.destroy()
        host.destroy()  # the parent raised AttributeError on a sentinel here

    for worker in workers:
        worker.join(timeout=10)
    assert not [worker.name for worker in workers if worker.is_alive()]
    for future in futures:
        assert future.wait(timeout_s=10)
    assert all(future.done() for future in futures)


def test_batch_of_one_takes_the_single_request_path(tiny_model, tiny_input):
    """A window that closes on a lone leader serves it byte-identically
    to the unbatched path: same ECALLs, same spans, no batch row."""
    policy = BatchPolicy(batch_window_s=0.05, max_batch=4)
    env, host = _launch(tiny_model, policy=policy)
    uid = _uid(env, "user")
    # first serve takes the single path (the pair is not hot yet)
    single = _decrypt(
        env,
        host,
        "user",
        host.infer(_encrypt(env, host, "user", tiny_input), uid, MODEL_ID),
    )

    env.tracer.clear()
    future = host.submit(_encrypt(env, host, "user", tiny_input), uid, MODEL_ID)
    plain = _decrypt(env, host, "user", future.result(timeout_s=30))

    names = [span.name for span in env.tracer.finished_spans()]
    assert "ecall:EC_MODEL_INF" in names
    assert "ecall:EC_MODEL_INF_BATCH" not in names
    assert list(host.code.batch_log) == []
    assert plain.tobytes() == single.tobytes()
    expected = tiny_model.run_reference(tiny_input).ravel()
    assert np.allclose(plain, expected, atol=1e-5)
    host.destroy()


def test_cancel_clears_the_execution_context(tiny_model, tiny_input):
    """cancel() after the INF ECALL still releases the enclave context
    before RequestCancelled surfaces -- no slot leaks."""
    env, host = _launch(tiny_model, policy=None)
    uid = _uid(env, "user")
    host.infer(_encrypt(env, host, "user", tiny_input), uid, MODEL_ID)

    with held_ecalls("EC_MODEL_INF") as gate:
        future = host.submit(_encrypt(env, host, "user", tiny_input), uid, MODEL_ID)
        gate.wait_entered(1)  # parked inside the ECALL: the context exists now
        assert host.code.pending_outputs == 1
        assert future.cancel() is True
        gate.release()
        with pytest.raises(RequestCancelled):
            future.result(timeout_s=30)
    assert future.done()
    assert future.cancelled()
    assert future.cancel() is False  # the outcome is sealed
    assert host.code.pending_outputs == 0
    host.destroy()


def test_cancel_before_the_worker_never_touches_the_enclave(
    tiny_model, tiny_input
):
    """Cancelling a queued request fails it without creating a context."""
    env, host = _launch(tiny_model)
    uid = _uid(env, "user")
    with held_ecalls("EC_MODEL_INF") as gate:
        blockers = [
            host.submit(_encrypt(env, host, "user", tiny_input), uid, MODEL_ID)
            for _ in range(4)
        ]
        gate.wait_entered(4)  # all four TCS slots are busy
        victim = host.submit(_encrypt(env, host, "user", tiny_input), uid, MODEL_ID)
        assert victim.cancel() is True
        gate.release()
        with pytest.raises(RequestCancelled):
            victim.result(timeout_s=30)
        for blocker in blockers:
            blocker.result(timeout_s=30)
    assert gate.entered["EC_MODEL_INF"] == 4  # the victim never entered
    assert host.code.pending_outputs == 0
    host.destroy()


def test_int_ticket_surface_is_gone(tiny_model, tiny_input):
    """The pre-futures raw int-ticket shim was removed after its window."""
    env, host = _launch(tiny_model)
    uid = _uid(env, "user")
    expected = tiny_model.run_reference(tiny_input).ravel()
    future = host.submit(_encrypt(env, host, "user", tiny_input), uid, MODEL_ID)
    assert isinstance(future.ticket, int)  # observability id only
    # ... and the host-side ``result(ticket)`` composition went with it:
    # the future itself is the only handle
    assert not hasattr(host, "result")
    plain = _decrypt(env, host, "user", future.result(timeout_s=30))
    assert np.allclose(plain, expected, atol=1e-5)
    host.destroy()
