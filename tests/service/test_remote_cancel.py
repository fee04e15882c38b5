"""``InferenceFuture.cancel()`` exercised through the HTTP service tier.

The satellite-3 scenarios: cancelling a request that is still queued,
one mid-serve inside a paced ECALL, and one riding in a live batch --
all over ``DELETE /v1/results/{id}`` -- plus the sticky terminal
replies (409 after a cancel, 410 after a consume) and the TTL sweeper
releasing abandoned results.  Every scenario ends with
``pending_outputs == 0``: a cancel must always release its enclave
execution context.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.batching import BatchPolicy
from repro.errors import RequestCancelled, StorageError
from tests.service.conftest import launch_world


def assert_context_released(world, timeout_s: float = 10.0) -> None:
    """The HTTP 409 lands before the paced worker finishes its cleanup,
    so give the enclave a moment to clear the execution context."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if world.host.code.pending_outputs == 0:
            return
        time.sleep(0.05)
    assert world.host.code.pending_outputs == 0


@pytest.fixture(scope="module")
def paced_world():
    """2 TCS paced to 400 ms: submissions are reliably in flight."""
    world = launch_world(tcs_count=2, paced_s=0.4, max_inflight=8)
    world.session.infer(world.x)  # warm: launch, keys, first ECALL
    yield world
    world.close()


def test_cancel_a_queued_request_before_it_reaches_the_enclave(paced_world):
    world = paced_world
    blockers = [world.session.submit(world.x) for _ in range(2)]
    victim = world.session.submit(world.x)  # both TCS busy: queued
    assert victim.cancel() is True
    with pytest.raises(RequestCancelled):
        victim.result(timeout_s=30)
    for blocker in blockers:
        blocker.result(timeout_s=30)
    assert_context_released(world)


def test_cancel_mid_serve_releases_the_execution_context(paced_world):
    world = paced_world
    future = world.session.submit(world.x)
    time.sleep(0.15)  # inside the paced ECALL: the context exists now
    assert future.cancel() is True
    with pytest.raises(RequestCancelled):
        future.result(timeout_s=30)
    assert_context_released(world)


def test_cancel_is_sticky_409_on_every_later_poll(paced_world):
    world = paced_world
    future = world.session.submit(world.x)
    assert future.cancel() is True
    assert future.cancelled() is True
    assert future.done() is True  # sealed counts as done
    with pytest.raises(RequestCancelled):
        future.result(timeout_s=5)
    with pytest.raises(RequestCancelled):
        future.result(timeout_s=5)
    # cancelling again is idempotent, not an error
    assert future.cancel() is True


def test_cancel_after_consume_is_refused(paced_world):
    world = paced_world
    future = world.session.submit(world.x)
    future.result(timeout_s=30)
    assert future.cancel() is False
    assert future.cancelled() is False


# -- the server's own sticky replies, on the raw wire ------------------------------
#
# ``RemoteFuture`` answers from its sealed cell after the first poll, so
# these go through ``client.request``: every reply below is the server's.


def _raw_submit(world, enc_request=None) -> str:
    """``POST /v1/submit`` without a client handle; the entry's path."""
    status, reply, _ = world.remote.client.request(
        "POST", "/v1/submit", world.payload(enc_request)
    )
    assert status == 202, reply
    return f"/v1/results/{reply['req_id']}"


def _get(world, path, **query):
    status, reply, _ = world.remote.client.request("GET", path, query=query)
    return status, reply


def _delete(world, path):
    status, reply, _ = world.remote.client.request("DELETE", path)
    assert status == 200, reply
    return reply


def _assert_nothing_held(world):
    assert world.remote.stats()["admission"]["inflight_total"] == 0
    assert_context_released(world)


def test_a_cancelled_entry_is_409_on_every_raw_poll(paced_world):
    world = paced_world
    path = _raw_submit(world)
    assert _delete(world, path) == {"cancelled": True}
    # the paced worker has not delivered the cancellation yet: the entry
    # answers for it already, without waiting
    started = time.monotonic()
    status, reply = _get(world, path, timeout_s="5")
    assert (status, reply["error"]) == (409, "RequestCancelled")
    assert time.monotonic() - started < 0.3
    assert _delete(world, path) == {"cancelled": True}
    for query in ({}, {"timeout_s": "1"}, {"peek": "1"}):
        status, reply = _get(world, path, **query)
        assert (status, reply["error"]) == (409, "RequestCancelled")
    _assert_nothing_held(world)


def test_a_failed_entry_replays_the_same_error_on_every_raw_poll(paced_world):
    world = paced_world
    # admitted with 202 (the tier relays ciphertext it cannot judge) and
    # refused in the enclave: the request key does not open it
    path = _raw_submit(world, enc_request=b"\x00" * 64)
    first = _get(world, path, timeout_s="10")
    assert first[0] == 400 and first[1]["error"] == "InvocationError"
    assert _get(world, path) == first
    assert _get(world, path, timeout_s="1") == first
    assert _delete(world, path) == {"cancelled": False}
    assert _get(world, path) == first
    _assert_nothing_held(world)


def test_a_consumed_entry_is_410_on_every_raw_poll(paced_world):
    world = paced_world
    path = _raw_submit(world)
    status, reply = _get(world, path, timeout_s="10")
    assert status == 200 and reply["done"] is True
    for _ in range(2):
        status, reply = _get(world, path)
        assert (status, reply["error"]) == (410, "ResultConsumed")
    assert _delete(world, path) == {"cancelled": False}
    status, reply = _get(world, path, timeout_s="1")
    assert (status, reply["error"]) == (410, "ResultConsumed")
    _assert_nothing_held(world)


def test_a_delete_racing_a_long_poll_ends_the_poll_with_409(paced_world):
    world = paced_world
    path = _raw_submit(world)
    polled = []
    poller = threading.Thread(
        target=lambda: polled.append(_get(world, path, timeout_s="5"))
    )
    poller.start()
    time.sleep(0.1)  # the long-poll is parked server-side
    assert _delete(world, path) == {"cancelled": True}
    poller.join(timeout=10)
    assert not poller.is_alive()
    status, reply = polled[0]
    assert (status, reply["error"]) == (409, "RequestCancelled")
    _assert_nothing_held(world)


@pytest.fixture(scope="module")
def batch_world():
    """A live accumulator (window 200 ms, batch 2) over paced TCS."""
    world = launch_world(
        tcs_count=2,
        paced_s=0.2,
        policy=BatchPolicy(batch_window_s=0.2, max_batch=2),
        max_inflight=8,
    )
    # two warm serves make the (user, model) pair hot so batches arm
    world.session.infer(world.x)
    world.session.infer(world.x)
    yield world
    world.close()


def test_cancel_one_batch_member_leaves_the_rest_correct(batch_world):
    world = batch_world
    xs = [world.x + np.float32(i) for i in range(3)]
    futures = [world.session.submit(x) for x in xs]
    assert futures[1].cancel() is True
    with pytest.raises(RequestCancelled):
        futures[1].result(timeout_s=30)
    from repro.mlrt.zoo import build_mobilenet

    model = build_mobilenet(seed=11)
    for index in (0, 2):
        y = futures[index].result(timeout_s=30)
        assert np.allclose(
            y, model.run_reference(xs[index]).ravel(), atol=1e-5
        )
    assert_context_released(world)


def test_ttl_sweeper_expires_abandoned_results():
    """A submitted-then-forgotten result is cancelled and its admission
    slot released once the TTL passes -- slots cannot leak."""
    world = launch_world(tcs_count=2, paced_s=0.05, result_ttl_s=1.0)
    try:
        world.session.infer(world.x)  # warm
        future = world.session.submit(world.x)
        path = f"/v1/results/{future.req_id}"
        deadline = time.monotonic() + 10
        status = None
        while time.monotonic() < deadline:
            status, _, _ = world.remote.client.request(
                "GET", path, query={"peek": "1"}
            )
            if status == 404:
                break
            time.sleep(0.25)
        assert status == 404, "the sweeper never expired the entry"
        with pytest.raises(StorageError):
            world.remote.client.call("GET", f"/v1/results/{future.req_id}")
        stats = world.remote.stats()
        assert stats["admission"]["inflight_total"] == 0
        assert stats["service"]["results_retained"] == 0
    finally:
        world.close()


def test_ttl_sweeper_releases_a_finished_result_nobody_polled():
    """A sealed submission refuses the sweeper's cancel, which settled
    nothing: the gateway slot and router ``pending`` of a served but
    never-fetched request used to stay taken for good."""
    world = launch_world(tcs_count=2, paced_s=0.05, result_ttl_s=1.0)
    try:
        world.session.infer(world.x)  # warm
        _raw_submit(world)  # ... and never polled, not even with a peek
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            stats = world.remote.stats()
            if stats["service"]["results_retained"] == 0:
                break
            time.sleep(0.25)
        assert stats["service"]["results_retained"] == 0, "never swept"
        assert stats["admission"]["inflight_total"] == 0
        assert stats["gateway"]["in_flight"] == 0
        router = world.service.gateway.router
        for endpoint, _ in router.endpoints():
            assert router.state(endpoint).pending == 0, endpoint
    finally:
        world.close()
