"""The Future protocol: one contract, one cell, every local handle.

Every local tier's handle is the same :class:`OutcomeCell` reached
through zero, one or two :class:`DerivedHandle` layers: the TCS
scheduler (:class:`InferenceFuture`, :class:`InferenceStream`), the
gateway (:class:`GatewaySubmission`, :class:`GatewayStream`) and the
session tier (:class:`SessionFuture`, :class:`SessionStream`).  One
parametrised contract runs against all six -- and against the service
tier's :class:`RemoteFuture` and :class:`RemoteStream`, the same cell
fed by an HTTP long-poll and off a chunked response body -- and the
deadline and cancellation cases then walk every local tier on a paced
host, where "still in flight" is deterministic
(``tests/service/test_remote_cancel.py`` and
``tests/service/test_streaming_http.py`` walk them over HTTP).
"""

import io
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.deployment import SeSeMIEnvironment, SessionFuture, SessionStream
from repro.core.futures import DerivedHandle, Future, OutcomeCell
from repro.core.gateway import GatewayStream, GatewaySubmission
from repro.core.semirt import InferenceFuture, InferenceStream, SchedulerConfig
from repro.core.semirt_enclave import default_semirt_config
from repro.errors import DeadlineExceeded, RequestCancelled
from repro.mlrt.decoder import DecoderSession
from repro.mlrt.zoo import build_tinylm
from repro.service.client import HttpStream, RemoteFuture, RemoteStream
from repro.service.protocol import frame_record
from tests.service.conftest import launch_world

MODEL_ID = "m"
PROMPT = [1, 2, 3]
HANDLES = (
    InferenceFuture,
    InferenceStream,
    GatewaySubmission,
    GatewayStream,
    SessionFuture,
    SessionStream,
)


def _world(tcs_count, scheduler):
    """One tinylm host plus an open session attached to it."""
    env = SeSeMIEnvironment()
    model = build_tinylm(seed=7)
    config = default_semirt_config(tcs_count=tcs_count)
    env.deploy(model, MODEL_ID, owner="owner", config=config).grant("user")
    host = env.launch_semirt("tvm", config=config, scheduler=scheduler)
    with env.session("user", MODEL_ID, config=config, semirt=host) as session:
        yield env, model, host, session
    host.destroy()


@pytest.fixture()
def world():
    yield from _world(2, SchedulerConfig(queue_depth=16))


@pytest.fixture()
def slow_world():
    """A paced solo host: nothing finishes within a millisecond, so a
    1 ms deadline always expires and an immediate cancel is always
    accepted."""
    yield from _world(1, SchedulerConfig(queue_depth=16, paced_service_s=0.05))


def _open(cls, world, new_tokens=4):
    """One live handle of type ``cls``, freshly submitted."""
    env, model, host, session = world
    user = env.user("user")
    x = np.zeros(model.input_spec.shape, dtype=np.float32)
    if cls is SessionFuture:
        return session.submit(x)
    if cls is SessionStream:
        return session.stream(PROMPT, new_tokens)
    target = host if cls in (InferenceFuture, InferenceStream) else session.gateway
    if cls in (InferenceStream, GatewayStream):
        enc = user.encrypt_stream_request(
            MODEL_ID, host.measurement, PROMPT, new_tokens
        )
        return target.open_stream(enc, user.principal_id, MODEL_ID)
    enc = user.encrypt_request(MODEL_ID, host.measurement, x)
    return target.submit(enc, user.principal_id, MODEL_ID)


def _same(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.fixture(scope="module")
def remote_world():
    """The same stack behind the HTTP service tier."""
    remote = launch_world(tcs_count=2, model_builder=lambda: build_tinylm(seed=7))
    yield remote
    remote.close()


@pytest.mark.parametrize(
    "cls", HANDLES + (RemoteFuture, RemoteStream), ids=lambda cls: cls.__name__
)
def test_every_handle_satisfies_the_protocol(request, cls):
    if cls in (RemoteFuture, RemoteStream):
        remote = request.getfixturevalue("remote_world")
        gateway = remote.service.gateway
        if cls is RemoteFuture:
            handle = remote.session.submit(remote.x)
        else:
            handle = remote.session.stream(PROMPT, 4)
    else:
        world = request.getfixturevalue("world")
        handle, gateway = _open(cls, world), world[3].gateway
    assert isinstance(handle, cls)
    assert isinstance(handle, Future)
    first = handle.result(timeout_s=30)
    assert handle.done()
    assert _same(first, handle.result(timeout_s=30))  # the outcome is sealed
    assert handle.cancel() is False  # too late: already terminal
    assert not handle.cancelled()
    assert gateway.in_flight == 0


def test_a_sealed_remote_handle_answers_without_a_round_trip(remote_world):
    """Once the long-poll sealed the cell the handle never goes back to
    the server -- whose reply would be the sticky 410 by now."""
    future = remote_world.session.submit(remote_world.x)
    want = remote_world.model.run_reference(remote_world.x).ravel()
    assert np.allclose(future.result(timeout_s=30), want, atol=1e-5)
    before = remote_world.remote.stats()["service"]["requests"]["results"]
    assert np.allclose(future.result(timeout_s=30), want, atol=1e-5)
    assert future.done() and not future.cancelled()
    assert future.cancel() is False
    assert remote_world.remote.stats()["service"]["requests"]["results"] == before


def test_two_threads_polling_one_remote_handle_agree(remote_world):
    """The server hands a result out once; the polling thread is the
    cell's producer and everyone else is its consumer."""
    future = remote_world.session.submit(remote_world.x)
    seen = []
    threads = [
        threading.Thread(target=lambda: seen.append(future.result(timeout_s=30)))
        for _ in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert len(seen) == 4 and all(np.array_equal(seen[0], y) for y in seen)


def test_threads_draining_one_remote_stream_agree(remote_world):
    """Whichever thread holds the socket reads for all of them: every
    waiter sees the whole sequence, none sees a record twice or not at
    all -- under a switch interval that makes the hand-over contended."""
    want = DecoderSession(remote_world.model).generate(PROMPT, 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stream = remote_world.session.stream(PROMPT, 16)
        seen = []
        threads = [
            threading.Thread(target=lambda: seen.append(stream.result(timeout_s=30)))
            for _ in range(3)
        ] + [threading.Thread(target=lambda: seen.append(list(stream))) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert seen == [want] * 6
    assert stream.done() and stream.token_count == 16


def test_stream_results_agree_with_the_reference(world):
    env, model, host, session = world
    want = DecoderSession(model).generate(PROMPT, 4)
    assert _open(SessionStream, world).result(timeout_s=30) == want
    frames = _open(GatewayStream, world).result(timeout_s=30)
    assert len(frames) == 4  # sealed frames; decryption is the session's job


def test_timeout_raises_without_sealing_the_outcome(slow_world):
    """A poll timeout is the caller's problem, not the handle's -- at
    every tier: nothing settles, and the handle still resolves."""
    gateway = slow_world[3].gateway
    for cls in HANDLES:
        handle = _open(cls, slow_world, new_tokens=2)
        routed = cls not in (InferenceFuture, InferenceStream)
        with pytest.raises(DeadlineExceeded):
            handle.result(timeout_s=0.001)
        assert not handle.done(), cls.__name__
        assert gateway.in_flight == (1 if routed else 0), cls.__name__
        handle.result(timeout_s=30)
        assert handle.done() and gateway.in_flight == 0, cls.__name__


def test_cancelled_handles_raise_request_cancelled(slow_world):
    """An accepted cancel at any tier surfaces as RequestCancelled with
    every resource the request held already released."""
    env, model, host, session = slow_world
    for cls in HANDLES:
        handle = _open(cls, slow_world, new_tokens=256)
        assert handle.cancel() is True, cls.__name__
        with pytest.raises(RequestCancelled):
            handle.result(timeout_s=30)
        assert handle.done() and handle.cancelled(), cls.__name__
        assert handle.cancel() is False, cls.__name__
        assert session.gateway.in_flight == 0, cls.__name__
        assert host.code.pending_outputs == 0, cls.__name__
        assert host.code.open_streams == 0, cls.__name__


# -- the cell and the derived base, directly ----------------------------------------


def test_an_accepted_cancel_is_a_promise_even_if_the_work_finishes():
    cell = OutcomeCell()
    cell.push(b"frame-0")
    assert cell.cancel() is True
    cell.set_result(b"too late")  # the producer raced past the cancel
    assert cell.cancel() is False
    with pytest.raises(RequestCancelled):
        cell.result(timeout_s=0)
    delivered = []
    with pytest.raises(RequestCancelled):
        for item in cell.items():
            delivered.append(item)
    assert delivered == [b"frame-0"]  # items pushed before the end still arrive


def test_the_first_terminal_transition_wins():
    cell = OutcomeCell()
    cell.set_error(ValueError("first"))
    cell.set_result(b"second")
    cell.set_cancelled()
    with pytest.raises(ValueError, match="first"):
        cell.result(timeout_s=0)
    assert cell.done() and not cell.cancelled()


class _GatedBody:
    """A chunked response body that hands out one record per ``arrive()``."""

    sock = None

    def __init__(self, frames):
        self._body = io.BytesIO(b"".join(frame_record(frame) for frame in frames))
        self._arrived = threading.Semaphore(0)
        self.blocked = threading.Event()

    def arrive(self, records=1):
        for _ in range(records):
            self._arrived.release()

    def read(self, n=-1):
        if n == 4:  # a record's length prefix: wait for the record
            self.blocked.set()
            self._arrived.acquire()
        return self._body.read(n)

    def close(self):
        pass


def test_a_waiter_takes_over_when_the_feeding_consumer_walks_away():
    """One consumer at a time reads the socket for everyone -- so when it
    stops consuming mid-stream, a consumer parked behind it must wake
    and read on, not sleep until a push that will never come."""
    frames = [b"frame-0", b"frame-1", b"frame-2"]
    body = _GatedBody(frames)
    stream = HttpStream(body, body)
    one_frame, everything = [], []
    reader = threading.Thread(target=lambda: one_frame.append(next(iter(stream))))
    reader.start()
    assert body.blocked.wait(timeout=5)  # the reader holds the socket
    waiter = threading.Thread(
        target=lambda: everything.append(stream.result(timeout_s=10))
    )
    waiter.start()
    time.sleep(0.05)  # parked on the cell, behind the reader
    body.arrive()  # frame-0: the reader takes it and never comes back
    reader.join(timeout=5)
    body.arrive(3)  # the rest of the body, and its end
    waiter.join(timeout=5)
    assert not reader.is_alive() and not waiter.is_alive()
    assert one_frame == [b"frame-0"] and everything == [frames]


def test_racing_consumers_settle_a_derived_handle_exactly_once():
    """result() and cancel() from many threads, a producer sealing the
    cell underneath them: the settle hook runs once per handle."""

    class Counted(DerivedHandle):
        def __init__(self, inner):
            super().__init__(inner)
            self.settles = []

        def _on_settle(self, error, cancelled):
            self.settles.append(cancelled)

    def consume(handle):
        handle.cancel()
        try:
            handle.result(timeout_s=10)
        except RequestCancelled:
            pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        handles = [Counted(OutcomeCell()) for _ in range(100)]
        for handle in handles:
            threads = [
                threading.Thread(target=consume, args=(handle,)) for _ in range(6)
            ]
            threads.append(threading.Thread(target=handle.inner.set_result, args=(b"y",)))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert [len(handle.settles) for handle in handles] == [1] * len(handles)
