"""Concurrent requests inside one SeMIRT enclave (real threads).

The paper's Figure 6: requests are dispatched to a thread pool, each
thread enters the enclave on its own TCS, the decrypted model lives in
the shared heap, and each request keeps its execution context in a
private ticketed slot.  These tests run actual Python threads through
the functional enclave to verify per-request isolation, the ticketed
ECALL surface, the TCS admission limit, the scheduler's backpressure,
and crash behaviour mid-batch.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.deployment import SeSeMIEnvironment
from repro.core.semirt import SchedulerConfig
from repro.core.semirt_enclave import IsolationSettings, default_semirt_config
from repro.errors import (
    EnclaveError,
    QueueFull,
    TcsExhausted,
    TransportError,
)


@pytest.fixture(scope="module")
def concurrent_setup(tiny_model):
    env = SeSeMIEnvironment()
    config = default_semirt_config(tcs_count=4)
    handle = env.deploy(
        tiny_model, "shared-model", owner="owner",
        framework="tflm", config=config,
    )
    handle.grant("user")
    semirt = env.launch_semirt("tflm", config=config)
    yield env, handle, env.user("user"), semirt
    semirt.destroy()


def test_parallel_requests_get_their_own_outputs(concurrent_setup, tiny_model):
    env, handle, user, semirt = concurrent_setup
    rng = np.random.default_rng(0)
    inputs = [
        rng.standard_normal(tiny_model.input_spec.shape).astype(np.float32)
        for _ in range(4)
    ]
    outputs = [None] * 4
    errors = []
    barrier = threading.Barrier(4)

    def worker(index):
        try:
            session = env.session(
                "user", "shared-model", framework="tflm",
                config=semirt.enclave.config, semirt=semirt,
            )
            barrier.wait(timeout=10)
            outputs[index] = session.infer(inputs[index])
        except Exception as exc:  # pragma: no cover - surfaced by assertion
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors, errors
    for index, x in enumerate(inputs):
        expected = tiny_model.run_reference(x).ravel()
        assert np.allclose(outputs[index], expected, atol=1e-5), index


def test_infer_many_returns_outputs_in_input_order(concurrent_setup, tiny_model):
    env, handle, user, semirt = concurrent_setup
    rng = np.random.default_rng(1)
    inputs = [
        rng.standard_normal(tiny_model.input_spec.shape).astype(np.float32)
        for _ in range(8)
    ]
    session = env.session(
        "user", "shared-model", framework="tflm",
        config=semirt.enclave.config, semirt=semirt,
    )
    outputs = session.infer_many(inputs)
    assert len(outputs) == len(inputs)
    for index, x in enumerate(inputs):
        expected = tiny_model.run_reference(x).ravel()
        assert np.allclose(outputs[index], expected, atol=1e-5), index


def test_distinct_users_never_mix_outputs(concurrent_setup, tiny_model):
    """N threads x distinct users on one enclave: outputs stay separate.

    Every user encrypts under their own request key and AAD; if two
    in-flight requests ever swapped execution contexts, the response
    would fail authentication (or decode to the wrong user's result).
    """
    env, handle, _, semirt = concurrent_setup
    names = [f"tenant-{i}" for i in range(4)]
    rng = np.random.default_rng(2)
    per_user_inputs = {}
    for name in names:
        handle.grant(name)
        per_user_inputs[name] = [
            rng.standard_normal(tiny_model.input_spec.shape).astype(np.float32)
            for _ in range(3)
        ]
    results = {name: None for name in names}
    errors = []
    barrier = threading.Barrier(len(names))

    def worker(name):
        try:
            session = env.session(
                name, "shared-model", framework="tflm",
                config=semirt.enclave.config, semirt=semirt,
            )
            barrier.wait(timeout=10)
            results[name] = session.infer_many(per_user_inputs[name])
        except Exception as exc:  # pragma: no cover - surfaced by assertion
            errors.append((name, exc))

    threads = [threading.Thread(target=worker, args=(n,)) for n in names]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors, errors
    for name in names:
        for got, x in zip(results[name], per_user_inputs[name]):
            expected = tiny_model.run_reference(x).ravel()
            assert np.allclose(got, expected, atol=1e-5), name


def test_all_threads_share_one_loaded_model(concurrent_setup, tiny_model):
    env, handle, user, semirt = concurrent_setup
    session = env.session(
        "user", "shared-model", framework="tflm",
        config=semirt.enclave.config, semirt=semirt,
    )
    session.infer_many(
        [np.zeros(tiny_model.input_spec.shape, dtype=np.float32)] * 4
    )
    # One model object in the enclave heap, regardless of thread count.
    assert semirt.code._model_id == "shared-model"


def test_ticketed_ecall_surface(concurrent_setup, tiny_model):
    """EC_MODEL_INF hands out a ticket; GET/CLEAR operate on it."""
    env, handle, user, semirt = concurrent_setup
    enc = user.encrypt_request(
        "shared-model", handle.measurement,
        np.zeros(tiny_model.input_spec.shape, dtype=np.float32),
    )
    ticket = semirt.enclave.ecall(
        "EC_MODEL_INF", enc, user.principal_id, "shared-model"
    )
    assert isinstance(ticket, int)
    assert semirt.code.pending_outputs == 1
    first = semirt.enclave.ecall("EC_GET_OUTPUT", ticket)
    again = semirt.enclave.ecall("EC_GET_OUTPUT", ticket)  # not consumed
    assert first == again and isinstance(first, bytes)
    semirt.enclave.ecall("EC_CLEAR_EXEC_CTX", ticket)
    assert semirt.code.pending_outputs == 0
    with pytest.raises(EnclaveError, match="no output pending"):
        semirt.enclave.ecall("EC_GET_OUTPUT", ticket)
    # clearing an unknown/already-cleared ticket is a harmless no-op
    semirt.enclave.ecall("EC_CLEAR_EXEC_CTX", ticket)
    with pytest.raises(EnclaveError, match="no output pending"):
        semirt.enclave.ecall("EC_GET_OUTPUT", 999_999)


def test_context_table_is_bounded_by_tcs_count(concurrent_setup, tiny_model):
    """A host that never clears contexts cannot grow the enclave heap."""
    env, handle, user, semirt = concurrent_setup
    enc = user.encrypt_request(
        "shared-model", handle.measurement,
        np.zeros(tiny_model.input_spec.shape, dtype=np.float32),
    )
    capacity = semirt.enclave.config.tcs_count
    tickets = [
        semirt.enclave.ecall(
            "EC_MODEL_INF", enc, user.principal_id, "shared-model"
        )
        for _ in range(capacity)
    ]
    with pytest.raises(EnclaveError, match="execution contexts"):
        semirt.enclave.ecall(
            "EC_MODEL_INF", enc, user.principal_id, "shared-model"
        )
    for ticket in tickets:
        semirt.enclave.ecall("EC_CLEAR_EXEC_CTX", ticket)
    assert semirt.code.pending_outputs == 0


def test_tcs_admission_limit(concurrent_setup, tiny_model):
    """More simultaneous ECALLs than TCSs are rejected by the hardware."""
    env, handle, user, semirt = concurrent_setup
    capacity = semirt.enclave.config.tcs_count
    release = threading.Event()
    admitted = []

    def blocking_load(model_id):
        """An OCALL handler that parks the loading thread in the enclave;
        the other threads park on the model-switch lock -- either way,
        each occupies its TCS."""
        release.wait(timeout=30)
        raise RuntimeError("unblocked")

    original = semirt.enclave._ocall_handlers["OC_LOAD_MODEL"]
    semirt.enclave.register_ocall("OC_LOAD_MODEL", blocking_load)
    # Force the model-load path so threads hit the blocking OCALL.
    semirt.code._model_id = None
    semirt.code._model = None

    enc = user.encrypt_request(
        "shared-model", handle.measurement,
        np.zeros(tiny_model.input_spec.shape, dtype=np.float32),
    )

    def occupant():
        try:
            semirt.enclave.ecall(
                "EC_MODEL_INF", enc, user.principal_id, "shared-model"
            )
        except RuntimeError:
            admitted.append(1)

    threads = [threading.Thread(target=occupant) for _ in range(capacity)]
    for thread in threads:
        thread.start()
    # Wait until every TCS is occupied.
    deadline = time.time() + 10
    while semirt.enclave.tcs_in_use < capacity and time.time() < deadline:
        time.sleep(0.01)
    try:
        assert semirt.enclave.tcs_in_use == capacity
        with pytest.raises(TcsExhausted):
            semirt.enclave.ecall(
                "EC_MODEL_INF", enc, user.principal_id, "shared-model"
            )
    finally:
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        semirt.enclave.register_ocall("OC_LOAD_MODEL", original)
    assert len(admitted) >= 1  # at least the loader thread was unblocked
    assert semirt.enclave.tcs_in_use == 0
    # Restore a servable state for later tests in the module.
    semirt.infer(enc, user.principal_id, "shared-model")


def test_sequential_isolation_refuses_multi_tcs(concurrent_setup):
    env, handle, user, semirt = concurrent_setup
    with pytest.raises(EnclaveError, match="sequential"):
        env.launch_semirt(
            "tflm",
            config=default_semirt_config(tcs_count=4),
            isolation=IsolationSettings.strong(),
        )


def test_submit_backpressure_raises_queue_full(tiny_model):
    """Submits beyond (busy workers + queue depth) bounce with QueueFull."""
    env = SeSeMIEnvironment()
    config = default_semirt_config(tcs_count=1)
    handle = env.deploy(
        tiny_model, "bp-model", owner="owner",
        framework="tflm", config=config,
    )
    handle.grant("user")
    user = env.user("user")
    host = env.launch_semirt(
        "tflm", config=config, scheduler=SchedulerConfig(queue_depth=1)
    )
    release = threading.Event()
    original = host.enclave._ocall_handlers["OC_LOAD_MODEL"]

    def slow_load(model_id):
        release.wait(timeout=30)
        return original(model_id)

    host.enclave.register_ocall("OC_LOAD_MODEL", slow_load)
    enc = user.encrypt_request(
        "bp-model", handle.measurement,
        np.zeros(tiny_model.input_spec.shape, dtype=np.float32),
    )
    first = host.submit(enc, user.principal_id, "bp-model")
    # wait for the single worker to pick it up and park in the OCALL
    deadline = time.time() + 10
    while host.enclave.tcs_in_use < 1 and time.time() < deadline:
        time.sleep(0.01)
    second = host.submit(enc, user.principal_id, "bp-model")  # fills the queue
    with pytest.raises(QueueFull):
        host.submit(enc, user.principal_id, "bp-model")
    release.set()
    for ticket in (first, second):
        assert isinstance(ticket.result(timeout_s=30), bytes)
    host.destroy()


def test_crash_mid_batch_fails_only_in_flight(tiny_model):
    """A dying enclave fails in-flight tickets; the next request is cold."""
    env = SeSeMIEnvironment()
    config = default_semirt_config(tcs_count=2)
    handle = env.deploy(
        tiny_model, "crash-model", owner="owner",
        framework="tflm", config=config,
    )
    handle.grant("user")
    user = env.user("user")
    host = env.launch_semirt("tflm", config=config)
    release = threading.Event()

    def dying_load(model_id):
        release.wait(timeout=30)
        raise TransportError("invoker died mid-load")

    host.enclave.register_ocall("OC_LOAD_MODEL", dying_load)
    enc = user.encrypt_request(
        "crash-model", handle.measurement,
        np.zeros(tiny_model.input_spec.shape, dtype=np.float32),
    )
    in_flight = [host.submit(enc, user.principal_id, "crash-model")
                 for _ in range(2)]
    deadline = time.time() + 10
    while host.enclave.tcs_in_use < 1 and time.time() < deadline:
        time.sleep(0.01)
    queued = host.submit(enc, user.principal_id, "crash-model")
    host.destroy()
    release.set()
    # the queued-but-unserved ticket dies with the enclave...
    with pytest.raises(EnclaveError, match="destroyed"):
        queued.result(timeout_s=30)
    # ...the in-flight ones surface their own failure
    for ticket in in_flight:
        with pytest.raises((TransportError, EnclaveError)):
            ticket.result(timeout_s=30)
    with pytest.raises(EnclaveError, match="destroyed"):
        host.submit(enc, user.principal_id, "crash-model")
    # a session attached to the dead host relaunches its own, cold
    session = env.session(
        "user", "crash-model", framework="tflm", config=config, semirt=host
    )
    x = np.zeros(tiny_model.input_spec.shape, dtype=np.float32)
    out = session.infer(x)
    assert np.allclose(out, tiny_model.run_reference(x).ravel(), atol=1e-5)
    assert session.semirt is not host and session.semirt.enclave.alive
    session.close()
