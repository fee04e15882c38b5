"""Streaming over HTTP: chunked token frames, cancel, errors, timeouts.

Drives ``POST /v1/stream`` end to end: a remote user opens a stream
through ``remote.session(...).stream`` (the one session class over
:class:`~repro.service.client.HttpGateway`), sealed frames arrive as chunked
records, and the client authenticates/orders them locally.  The server
side must release enclave stream contexts on every exit path -- clean
drain, client cancel, deadline expiry -- because an abandoned KV cache
pins enclave heap.
"""

import itertools
import time

import pytest

from repro.core.batching import BatchPolicy
from repro.core.semirt_enclave import MAX_STREAM_TOKENS
from repro.errors import DeadlineExceeded, InvocationError
from repro.mlrt.decoder import DecoderSession
from repro.mlrt.zoo import build_tinylm

from tests.conftest import held_ecalls
from tests.service.conftest import launch_world


@pytest.fixture(scope="module")
def world():
    w = launch_world(
        tcs_count=4,
        policy=BatchPolicy(batch_window_s=0.02, max_batch=4),
        max_inflight=16,
        model_builder=lambda: build_tinylm(seed=7),
    )
    yield w
    w.close()


def _wait_for(condition, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.02)
    return condition()


def _open_streams(world):
    return world.host.enclave.code.open_streams


def test_remote_stream_matches_reference_decode(world):
    want = DecoderSession(world.model).generate([3, 1, 4], 8)
    stream = world.session.stream([3, 1, 4], 8)
    assert stream.result(timeout_s=30) == want
    assert stream.done() and not stream.cancelled()
    assert stream.token_count == 8
    assert _wait_for(lambda: _open_streams(world) == 0)


def test_iterating_yields_tokens_in_decode_order(world):
    want = DecoderSession(world.model).generate([2, 7, 1], 6)
    got = list(world.session.stream([2, 7, 1], 6))
    assert got == want


def test_concurrent_remote_streams_batch_server_side(world):
    world.host.enclave.code.stream_log.clear()
    prompts = [[i + 1, 2, 3] for i in range(4)]
    refs = [DecoderSession(world.model).generate(p, 10) for p in prompts]
    with held_ecalls("EC_MODEL_INF_STREAM") as gate:
        # the first stream's prefill is held: the rest join its group
        streams = [world.session.stream(prompts[0], 10)]
        gate.wait_entered(1)
        streams += [world.session.stream(p, 10) for p in prompts[1:]]
        assert _wait_for(lambda: len(world.host._stream_group.joiners) == 3)
        gate.release()
        assert [s.result(timeout_s=30) for s in streams] == refs
    sizes = [n for _, _, n in world.host.enclave.code.stream_log]
    assert any(n > 1 for n in sizes), (
        f"four concurrent remote streams never shared a step ECALL: {sizes}"
    )
    assert _wait_for(lambda: _open_streams(world) == 0)


def test_cancel_stops_the_server_side_decode(world):
    log = world.host.enclave.code.stream_log
    log.clear()
    with held_ecalls("EC_STREAM_STEP") as gate:
        stream = world.session.stream([1, 2, 3], 512)
        frames = iter(stream)
        next(frames)  # the stream is live end to end
        assert stream.cancel() is True
        assert stream.cancelled() and stream.done()
        assert stream.cancel() is False
        # closing the socket is the signal: the server's next frame write
        # fails, it cancels the gateway stream, and the enclave context --
        # KV cache included -- is released without waiting for 512 tokens
        gate.release()
        assert _wait_for(lambda: _open_streams(world) == 0)
    assert len(log) <= 8, "the server kept decoding after the client hung up"


def test_mid_stream_errors_arrive_as_typed_records(world):
    # a zero token budget passes the client but is refused in the
    # enclave after admission: the failure reaches the client as a
    # flagged error record on the open stream, not a silent hangup
    stream = world.session.stream([1, 2, 3], 0)
    with pytest.raises(InvocationError, match="max_new_tokens"):
        stream.result(timeout_s=30)
    assert stream.done() and not stream.cancelled()
    assert _wait_for(lambda: _open_streams(world) == 0)


def test_a_prompt_past_the_bound_is_a_typed_refusal(world):
    # the body is well under the tier's cap; the enclave bounds the
    # prompt, and the refusal frees the stream context and the slot
    stream = world.session.stream([1] * (MAX_STREAM_TOKENS + 1), 4)
    with pytest.raises(InvocationError, match="prompt must hold"):
        stream.result(timeout_s=30)
    assert stream.done() and not stream.cancelled()
    assert _wait_for(lambda: _open_streams(world) == 0)
    assert _wait_for(
        lambda: world.remote.stats()["admission"]["inflight_total"] == 0
    )


class _CutShort:
    """The untrusted tier as adversary: relays the first ``keep`` sealed
    frames of a gateway stream, then ends the chunked body *cleanly* --
    and cancels the gateway stream it cut, so the fleet counts nothing."""

    def __init__(self, handle, keep):
        self._handle = handle
        self._keep = keep

    def __iter__(self):
        yield from itertools.islice(iter(self._handle), self._keep)
        if not self._handle.cancel():  # sealed already: consuming it settles it
            self._handle.result(timeout_s=0)

    def __getattr__(self, name):
        return getattr(self._handle, name)


@pytest.mark.parametrize("keep", [3, 0])
def test_a_stream_the_relay_cuts_short_is_refused(world, monkeypatch, keep):
    """Every record that arrives authenticates and is in order; only the
    sealed ``done`` marker shows the tail is missing."""
    gateway = world.service.gateway
    real = gateway.open_stream
    monkeypatch.setattr(
        gateway, "open_stream", lambda *args: _CutShort(real(*args), keep)
    )
    want = DecoderSession(world.model).generate([3, 1, 4], 8)
    delivered = []
    with pytest.raises(InvocationError, match="truncated"):
        for token in world.session.stream([3, 1, 4], 8):
            delivered.append(token)
    assert delivered == want[:keep]  # the authenticated prefix, then the refusal
    stream = world.session.stream([3, 1, 4], 8)
    with pytest.raises(InvocationError, match="truncated"):
        stream.result(timeout_s=30)
    assert stream.done() and not stream.cancelled()
    assert stream.token_count == keep
    assert _wait_for(lambda: _open_streams(world) == 0)


def test_result_deadline_kills_the_transport(world):
    with held_ecalls("EC_STREAM_STEP"):  # 512 tokens cannot beat the deadline
        stream = world.session.stream([1, 2, 3], 512)
        with pytest.raises(DeadlineExceeded):
            stream.result(timeout_s=0.05)
    # the documented transport caveat: an expired remote stream is dead
    assert stream.done()
    with pytest.raises(DeadlineExceeded):
        stream.result(timeout_s=30)
    assert _wait_for(lambda: _open_streams(world) == 0)


def test_streams_and_one_shot_inference_share_the_connection_pool(world):
    # a streaming response must never wedge the keep-alive connection
    # used by the JSON endpoints: open a stream, then do normal work
    stream = world.session.stream([5, 2, 3], 4)
    want = DecoderSession(world.model).generate([5, 2, 3], 4)
    assert world.remote.healthz()["ok"] is True
    assert stream.result(timeout_s=30) == want
