"""The warm request on its caller's thread, racing everything else on the host.

A blocking request with no deadline (``SemirtHost.infer``,
``InferenceGateway.dispatch(timeout_s=None)``, so every
``session.infer``) runs its ECALL cycle on the calling thread when a TCS
slot is free, nothing is queued ahead of it and no batch policy is
armed; everything else -- async submissions, streams, batch windows, a
dispatch with a deadline -- queues for a slot worker.  Whichever thread
enters the enclave holds a slot of the host's one count, and the model
runtime belongs to the TCS, not to the thread, so many callers never
build more than ``tcs_count`` runtimes.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.batching import BatchPolicy
from repro.core.deployment import SeSeMIEnvironment
from repro.core.semirt import SchedulerConfig
from repro.core.semirt_enclave import SemirtEnclaveCode, default_semirt_config
from repro.errors import RequestCancelled
from repro.mlrt.decoder import DecoderSession
from repro.mlrt.zoo import build_tinylm
from tests.conftest import held_ecalls

MODEL_ID = "lm"
#: every ECALL a request or a stream makes: a parked call holds its TCS
SERVING_ECALLS = (
    "EC_MODEL_INF", "EC_GET_OUTPUT", "EC_CLEAR_EXEC_CTX",
    "EC_MODEL_INF_STREAM", "EC_STREAM_STEP",
)


@pytest.fixture(scope="module")
def model():
    return build_tinylm(seed=7)


def _world(model, tcs_count, scheduler=None):
    env = SeSeMIEnvironment()
    config = default_semirt_config(tcs_count=tcs_count)
    env.deploy(model, MODEL_ID, owner="owner", config=config).grant("user")
    host = env.launch_semirt("tvm", config=config, scheduler=scheduler)
    session = env.session("user", MODEL_ID, config=config, semirt=host)
    return env, host, session


def _inputs(model, count):
    rng = np.random.default_rng(3)
    shape = model.input_spec.shape
    return [rng.integers(1, 32, size=shape).astype(np.float32) for _ in range(count)]


def _serving_threads(monkeypatch):
    """Record the name of the thread that enters each ``EC_MODEL_INF``."""
    names = []
    original = SemirtEnclaveCode.EC_MODEL_INF

    def recorded(code, *args):
        names.append(threading.current_thread().name)
        return original(code, *args)

    recorded.ecall_row = original.ecall_row
    monkeypatch.setattr(SemirtEnclaveCode, "EC_MODEL_INF", recorded)
    return names


def _wait_until(condition, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.001)


def test_callers_beyond_the_tcs_count_share_the_host_with_async_work_and_a_stream(model):
    """Six callers dispatching with no deadline on a 2-TCS host, while
    async submissions and a stream share it and every serving ECALL is
    held on its TCS: no ``TcsExhausted``, never more than two ECALLs
    inside, at most two runtimes built, every output right."""
    tcs = 2
    env, host, session = _world(model, tcs)
    xs = _inputs(model, 8)
    references = [model.run_reference(x).ravel() for x in xs]
    prompt = [2, 7, 1]
    session.infer(xs[0])  # the cold start, ungated
    env.tracer.clear()
    errors, checked = [], []

    def caller(index):
        try:
            for round_ in range(3):
                key = (index + round_) % len(xs)
                checked.append(np.allclose(session.infer(xs[key]), references[key], atol=1e-5))
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads as often as possible
    try:
        with held_ecalls(*SERVING_ECALLS) as gate:
            callers = [threading.Thread(target=caller, args=(i,)) for i in range(3 * tcs)]
            for thread in callers:
                thread.start()
            stream = session.stream(prompt, 6)
            futures = [session.submit(xs[key]) for key in range(4)]
            done = threading.Event()

            def releaser():
                while not done.is_set():
                    gate.release(1)
                    time.sleep(0.0005)

            opener = threading.Thread(target=releaser)
            opener.start()
            try:
                tokens = stream.result(timeout_s=60)
                outputs = [future.result(timeout_s=60) for future in futures]
                for thread in callers:
                    thread.join(timeout=60)
            finally:
                done.set()
                opener.join(timeout=10)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in callers + [opener])
    assert not errors, errors
    assert len(checked) == 3 * 3 * tcs and all(checked)
    assert tokens == DecoderSession(model).generate(prompt, 6)
    for key, output in enumerate(outputs):
        assert np.allclose(output, references[key], atol=1e-5)
    assert gate.peak == tcs  # the enclave was full, never over-full
    runtimes = [s for s in env.tracer.spans if s.name == "stage:runtime_init"]
    assert len(runtimes) <= tcs - 1  # the cold start built the first
    assert host.slots_in_use == 0 and host.enclave.tcs_in_use == 0
    host.destroy()


def test_a_request_parked_on_its_callers_thread_sends_the_next_one_to_a_worker(
    model, monkeypatch
):
    """On a 1-TCS host an idle slot serves a blocking request on its
    caller's thread; while that request holds the slot, the next blocking
    request is queued and a scheduler worker serves it."""
    env, host, session = _world(model, 1)
    names = _serving_threads(monkeypatch)
    (x,) = _inputs(model, 1)
    reference = model.run_reference(x).ravel()
    session.infer(x)  # the cold start
    assert names == [threading.current_thread().name]
    results = {}

    def caller(name):
        results[name] = session.infer(x)

    with held_ecalls("EC_MODEL_INF") as gate:
        first = threading.Thread(target=caller, args=("first",), name="caller-first")
        first.start()
        gate.wait_entered(1)
        assert names[-1] == "caller-first" and host.slots_in_use == 1
        second = threading.Thread(target=caller, args=("second",), name="caller-second")
        second.start()
        _wait_until(lambda: host._backlog == 1)  # queued behind the parked one
        gate.release(1)
        gate.wait_entered(2)
        assert names[-1].startswith(f"semirt-{host.enclave.enclave_id}-")
        gate.release()
        first.join(timeout=30)
        second.join(timeout=30)
    assert not first.is_alive() and not second.is_alive()
    assert set(results) == {"first", "second"}
    assert all(np.allclose(out, reference, atol=1e-5) for out in results.values())
    host.destroy()


def test_async_work_a_deadline_and_a_batch_policy_stay_on_the_queue(model, monkeypatch):
    """Only a blocking request with no deadline on an unbatched host is
    served on its caller's thread."""
    env, host, session = _world(model, 1)
    names = _serving_threads(monkeypatch)
    (x,) = _inputs(model, 1)
    uid = env.user("user").principal_id
    enc = env.user("user").encrypt_request(MODEL_ID, host.measurement, x)
    host.infer(enc, uid, MODEL_ID)
    host.submit(enc, uid, MODEL_ID).result(timeout_s=30)
    session.gateway.dispatch(enc, uid, MODEL_ID, timeout_s=30)
    session.gateway.dispatch(enc, uid, MODEL_ID)
    worker = f"semirt-{host.enclave.enclave_id}-"
    me = threading.current_thread().name
    assert [name == me for name in names] == [True, False, False, True]
    assert all(name.startswith(worker) for name in names if name != me)
    host.destroy()

    env, host, _ = _world(
        model, 2, SchedulerConfig(batch=BatchPolicy(batch_window_s=0.001, max_batch=2))
    )
    del names[:]
    user = env.user("user")
    host.infer(user.encrypt_request(MODEL_ID, host.measurement, x), user.principal_id, MODEL_ID)
    assert len(names) == 1 and names[0].startswith(f"semirt-{host.enclave.enclave_id}-")
    host.destroy()


def test_a_claimed_request_cancelled_before_its_wait_gives_its_slot_back(model):
    env, host, _ = _world(model, 1)
    (x,) = _inputs(model, 1)
    user = env.user("user")
    enc = user.encrypt_request(MODEL_ID, host.measurement, x)
    claimed = host.claim(enc, user.principal_id, MODEL_ID)
    assert host.slots_in_use == 1 and not claimed.done()
    assert claimed.cancel()
    assert host.slots_in_use == 0
    with pytest.raises(RequestCancelled):
        claimed.result()
    assert host.code.pending_outputs == 0  # it never reached the enclave
    host.destroy()
