"""End-to-end HTTP: the session API over a live service tier.

One module-scoped world: a real SeMIRT endpoint (2 TCS, paced to 50 ms
so concurrency is observable) behind the gateway and the asyncio HTTP
front door, with ``max_inflight_total=2`` so admission sheds are
deterministic: two outstanding submissions fill the tier and the third
is a fast 429 -> :class:`~repro.errors.QueueFull` client-side.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import QueueFull, ReproError, StorageError
from tests.service.conftest import MODEL_ID, USER, launch_world


@pytest.fixture(scope="module")
def world():
    world = launch_world(
        tcs_count=2, paced_s=0.05, max_inflight=2, share_tracer=True
    )
    # warm off the assertions: enclave launch, key release, first ECALL
    world.session.infer(world.x)
    yield world
    world.close()


def expected(world) -> np.ndarray:
    from repro.mlrt.zoo import build_mobilenet

    return build_mobilenet(seed=11).run_reference(world.x).ravel()


def test_sync_infer_round_trips_the_real_crypto(world):
    y = world.session.infer(world.x)
    assert np.allclose(y, expected(world), atol=1e-5)


def test_the_service_never_sees_plaintext(world):
    """The request body is AEAD ciphertext: no input bytes in the clear."""
    enc = world.session.user.encrypt_request(
        MODEL_ID, world.session.measurement, world.x
    )
    assert isinstance(enc, bytes)
    assert world.x.tobytes() not in enc


def test_submit_then_poll_consumes_exactly_once(world):
    future = world.session.submit(world.x)
    y = future.result(timeout_s=30)
    assert np.allclose(y, expected(world), atol=1e-5)
    assert future.done()
    # the server handed the output out once: a raw poll replays a sticky 410
    with pytest.raises(ReproError, match="already fetched"):
        world.remote.client.call("GET", f"/v1/results/{future.req_id}")
    # ... while the handle sealed the outcome and keeps answering from it
    assert np.array_equal(future.result(timeout_s=5), y)
    assert future.cancel() is False


def test_admission_shed_is_queue_full_client_side(world):
    first = world.session.submit(world.x)
    second = world.session.submit(world.x)
    with pytest.raises(QueueFull):
        world.session.submit(world.x)
    # draining the slots reopens admission
    first.result(timeout_s=30)
    second.result(timeout_s=30)
    world.session.submit(world.x).result(timeout_s=30)


def test_infer_many_pipelines_through_the_feed_window(world):
    xs = [world.x + np.float32(i) for i in range(5)]
    ys = world.session.infer_many(xs)
    from repro.mlrt.zoo import build_mobilenet

    model = build_mobilenet(seed=11)
    for x, y in zip(xs, ys):
        assert np.allclose(y, model.run_reference(x).ravel(), atol=1e-5)


def test_unknown_model_is_a_404_storage_error(world):
    with pytest.raises(ReproError):
        world.remote.session(USER, "no-such-model")
    status, payload, _ = world.remote.client.request(
        "POST", "/v1/infer",
        {"model_id": "ghost", "uid": "u", "enc_request": b"x"},
    )
    assert status == 404
    assert payload["error"] == "StorageError"


def test_unknown_request_id_is_a_404(world):
    with pytest.raises(StorageError):
        world.remote.client.call("GET", "/v1/results/r-999999")


def test_malformed_body_is_a_400_invocation_error(world):
    status, payload, _ = world.remote.client.request(
        "POST", "/v1/infer", {"model_id": MODEL_ID}
    )
    assert status == 400
    assert payload["error"] == "InvocationError"
    assert "missing field" in payload["message"]


def test_healthz_and_stats_report_the_traffic(world):
    health = world.remote.healthz()
    assert health["ok"] is True
    assert health["endpoints"] == 1
    stats = world.remote.stats()
    assert stats["admission"]["admitted"] > 0
    assert stats["service"]["requests"]["infer"] > 0
    assert stats["gateway"]["endpoints"] == 1


def test_meta_advertises_the_deployment(world):
    meta = world.remote.meta
    info = meta["models"][MODEL_ID]
    assert info["tcs_count"] == 2
    assert info["feed_window"] == 2  # no batch policy armed
    assert len(meta["keyservice_measurement"]) == 64


def test_client_span_joins_the_server_trace(world):
    """One shared tracer: the client's request span must point at the
    server's ``http:infer`` trace, which owns the ECALL spans."""
    tracer = world.env.tracer
    tracer.clear()
    world.session.infer(world.x)
    spans = tracer.finished_spans()
    client = [
        s for s in spans
        if s.name == "request" and s.attributes.get("transport") == "http"
    ]
    assert len(client) == 1
    server_trace = client[0].attributes["server_trace_id"]
    roots = [s for s in spans if s.name == "http:infer"]
    assert [s.trace_id for s in roots] == [server_trace]
    ecalls = {
        s.name for s in spans if s.trace_id == server_trace
    }
    assert "ecall:EC_MODEL_INF" in ecalls
    assert "route" in ecalls


def test_no_route_is_a_404(world):
    status, payload, _ = world.remote.client.request("GET", "/v1/nope")
    assert status == 404
