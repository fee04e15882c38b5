"""End-to-end HTTP: the session API over a live service tier.

One module-scoped world: a real SeMIRT endpoint (2 TCS) behind the
gateway and the threaded HTTP front door, with ``max_inflight_total=2``
so admission sheds are deterministic: two outstanding submissions fill
the tier and the third is a fast 429 -> :class:`~repro.errors.QueueFull`
client-side.  Where a test needs requests still in flight it holds them
inside their ECALL (``tests/conftest.py``'s ``held_ecalls``).
"""

from __future__ import annotations

import dataclasses
import http.client
import socket
import struct
import threading
import time

import numpy as np
import pytest

import repro.core.wire as wire
from repro.core.client import KeyServiceConnection
from repro.errors import QueueFull, ReproError, StorageError, TransportError
from repro.service import ServiceClient
from repro.sgx.measurement import EnclaveMeasurement
from tests.conftest import held_ecalls
from tests.service.conftest import MODEL_ID, USER, launch_world


@pytest.fixture(scope="module")
def world():
    world = launch_world(tcs_count=2, max_inflight=2, share_tracer=True)
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
        world.remote.client.call("GET", f"/v1/results/{future.inner.req_id}")
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


def test_a_full_tier_sheds_before_the_gateway_and_the_held_complete(world):
    """While every admission slot is held, a further ``/v1/infer`` is a
    429 decided before routing: no ``route`` span, no gateway admission,
    no ECALL -- and the parked requests then complete."""
    gateway = world.service.gateway

    def routes():
        return sum(1 for s in world.env.tracer.finished_spans() if s.name == "route")

    with held_ecalls("EC_MODEL_INF") as gate:
        held = [world.session.submit(world.x) for _ in range(2)]
        gate.wait_entered(2)
        before = routes()
        # another tenant, so only the total bound can refuse it; a tier
        # that wrongly admits could only wait, which ``timeout_s`` bounds
        status, reply, _ = world.remote.client.request(
            "POST", "/v1/infer", world.payload(uid="other-tenant", timeout_s=1)
        )
        assert (status, reply["error"]) == (429, "QueueFull"), reply
        assert routes() == before
        assert gateway.in_flight == 2
        gate.release()
        outputs = [future.result(timeout_s=30) for future in held]
    assert gate.entered["EC_MODEL_INF"] == 2
    assert all(np.allclose(y, expected(world), atol=1e-5) for y in outputs)


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


@pytest.mark.parametrize("path", ["/v1/infer", "/v1/ks/handshake", "/v1/ks/call"])
def test_a_deeply_nested_body_is_a_400_not_a_500(world, path):
    """A 10 KB body whose field table nests 5,000 arrays is a refusal
    at the door, not a RecursionError out of the decode."""
    table = b'{"a": ' + b"[" * 5000 + b"]" * 5000 + b"}"
    body = b"\x01" + struct.pack(">I", len(table)) + table + struct.pack(">I", 0)
    client = world.remote.client
    conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
    try:
        conn.request("POST", path, body=body)
        response = conn.getresponse()
        status, reply = response.status, wire.loads(response.read())
    finally:
        conn.close()
    assert (status, reply["error"]) == (400, "InvocationError"), reply
    assert "nests too deeply" in reply["message"]
    assert client.call("GET", "/v1/healthz")["ok"] is True


def test_a_wrong_sized_input_is_a_400_not_a_500(world):
    """Authenticated, well-formed, wrong tensor size: the user's mistake."""
    session = world.session
    enc = session.user.encrypt_request(
        session.model_id, session.measurement, np.zeros((1, 8, 8, 3), np.float32)
    )
    status, reply, _ = world.remote.client.request(
        "POST", "/v1/infer", world.payload(enc)
    )
    assert (status, reply["error"]) == (400, "InvocationError"), reply
    assert "float32 tensor of the model's shape" in reply["message"]
    assert world.remote.stats()["admission"]["inflight_total"] == 0
    assert np.allclose(session.infer(world.x), expected(world), atol=1e-5)


def _endpoint_health(world) -> tuple:
    gateway = world.service.gateway
    (endpoint, _models), = gateway.router.endpoints()
    host = gateway.host(endpoint)
    state = dataclasses.replace(gateway.router.state(endpoint))  # a copy: the live one moves
    return host, host.enclave.alive, state


def test_a_malformed_keyservice_operation_over_the_proxy_is_ok_false_not_500(world):
    """One-way attestation lets anyone open a KeyService channel through
    ``/v1/ks/*``: a misshapen operation on it is KeyService's own
    ``{"ok": false}`` reply on a 200, not a 500 out of ``EC_REQUEST``."""
    remote = world.remote
    connection = KeyServiceConnection(
        remote.keyservice, remote.attestation,
        EnclaveMeasurement(remote.meta["keyservice_measurement"]),
    )
    reply = connection.call({"op": "register"})
    assert reply["ok"] is False
    assert "missing field 'identity_key'" in reply["error"]


def test_an_empty_uid_is_a_400_at_the_door_and_the_endpoint_is_untouched(world):
    """The door checks a body in SeMIRT's own words (an id is 1-256
    characters): an empty uid never reaches the fleet, so the endpoint's
    health never hears of it."""
    before = _endpoint_health(world)
    status, reply, _ = world.remote.client.request(
        "POST", "/v1/infer", world.payload(uid="")
    )
    assert (status, reply["error"]) == (400, "InvocationError"), reply
    assert "field 'uid': length 0 is below 1" in reply["message"]
    assert _endpoint_health(world) == before
    assert world.remote.stats()["admission"]["inflight_total"] == 0


_INFER = {"model_id": MODEL_ID, "uid": "u", "enc_request": b"x"}


def _wrong_typed():
    def case(method, path, payload, query, field, value):
        route = path.split("/")[2]
        label = value if str(value).isalnum() else type(value).__name__
        return pytest.param(
            method, path, payload, query, id=f"{route}-{field}-{label}"
        )

    for path in ("/v1/infer", "/v1/submit", "/v1/stream"):
        for field, value in [
            ("model_id", ["m"]),
            ("uid", {"a": 1}),
            ("uid", 7),  # admitted once, and then broke /v1/stats for everyone
            ("enc_request", "not bytes"),
            ("timeout_s", "soon"),
            ("timeout_s", [1]),
            ("timeout_s", -1),
            ("timeout_s", True),
        ]:
            yield case("POST", path, dict(_INFER, **{field: value}), None, field, value)
    for value in ("soon", "nan"):
        yield case(
            "GET", "/v1/results/r-1", None, {"timeout_s": value}, "timeout_s", value
        )
    for path, good, field, value in [
        ("/v1/ks/call", {"ciphertext": b"c"}, "channel_id", "x"),
        ("/v1/ks/call", {"channel_id": 1}, "ciphertext", "c"),
        ("/v1/ks/handshake", {}, "offer", "hello"),
        ("/v1/grants", {"model_id": MODEL_ID}, "uid", 7),
    ]:
        yield case("POST", path, dict(good, **{field: value}), None, field, value)


@pytest.mark.parametrize("method,path,payload,query", _wrong_typed())
def test_wrong_typed_fields_are_400s_before_admission(
    world, method, path, payload, query
):
    status, reply, _ = world.remote.client.request(
        method, path, payload, query=query
    )
    assert (status, reply["error"]) == (400, "InvocationError"), reply
    status, stats, _ = world.remote.client.request("GET", "/v1/stats")
    assert status == 200, stats
    assert stats["admission"]["inflight_total"] == 0
    assert stats["admission"]["inflight_by_tenant"] == {}


def test_a_zero_timeout_means_do_not_wait(world):
    payload = world.payload(timeout_s=0)
    # held in the enclave, a request that may not wait cannot have finished
    with held_ecalls("EC_MODEL_INF"):
        started = time.monotonic()
        status, reply, _ = world.remote.client.request("POST", "/v1/infer", payload)
        assert (status, reply["error"]) == (504, "DeadlineExceeded")
        assert time.monotonic() - started < 5.0  # not the 30 s default
        assert world.remote.stats()["admission"]["inflight_total"] == 0


# -- the client's one retry ---------------------------------------------------------


def test_a_timed_out_request_is_never_sent_twice():
    """A timeout says nothing about whether the request ran, and no
    inference route is idempotent: exactly one POST reaches the tier."""
    slow = launch_world(tcs_count=2)
    try:
        slow.session.infer(slow.x)  # warm
        payload = slow.payload()
        before = slow.remote.stats()
        impatient = ServiceClient(slow.service.base_url, timeout_s=0.2)
        with held_ecalls("EC_MODEL_INF"):  # the reply cannot beat the timeout
            with pytest.raises(TransportError, match="timed out"):
                impatient.request("POST", "/v1/infer", payload)
        deadline = time.monotonic() + 10
        while slow.remote.stats()["admission"]["inflight_total"]:
            assert time.monotonic() < deadline
            time.sleep(0.05)
        after = slow.remote.stats()
        assert (
            after["service"]["requests"]["infer"]
            == before["service"]["requests"]["infer"] + 1
        )
        assert after["admission"]["admitted"] == before["admission"]["admitted"] + 1
    finally:
        slow.close()


class _HangsUpAfterEachReply(threading.Thread):
    """An HTTP server that promises keep-alive and closes the socket
    anyway: every reused client connection is stale."""

    def __init__(self):
        super().__init__(daemon=True)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.1)
        self.port = self.listener.getsockname()[1]
        self.stopped = threading.Event()
        self.requests = 0

    def run(self):
        while not self.stopped.is_set():
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            with conn:
                head = b""
                while b"\r\n\r\n" not in head:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    head += chunk
                else:
                    self.requests += 1
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                        b"Content-Length: 2\r\nConnection: keep-alive\r\n\r\n{}"
                    )


def test_a_stale_keep_alive_connection_is_retried_transparently():
    server = _HangsUpAfterEachReply()
    server.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{server.port}", timeout_s=5)
        for _ in range(3):
            assert client.request("GET", "/v1/healthz")[0] == 200
            time.sleep(0.05)  # the server's FIN lands before the next use
        # each reuse found the connection closed before a response byte
        # arrived and was sent again on a fresh one -- once, not twice
        assert server.requests == 3
        client.close()
    finally:
        server.stopped.set()
        server.join(timeout=5)
        server.listener.close()
    assert not server.is_alive()


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
