"""The blocking server's bounds: connections, idle time, and ``close()``.

``MAX_CONNECTIONS`` and ``IDLE_TIMEOUT_S`` are module constants; each
test shrinks them with ``monkeypatch`` so none opens more than a
handful of sockets or threads.  Every thread the service tier starts is
named with :data:`~repro.service.httpd.THREAD_PREFIX`, and every test
here ends with none of them left.
"""

import socket
import threading
import time

import pytest

import repro.service.httpd as httpd
from repro.errors import TransportError
from repro.mlrt.zoo import build_tinylm
from repro.service.client import ServiceClient
from repro.service.httpd import THREAD_PREFIX, HttpResponse, HttpServer
from tests.conftest import held_ecalls
from tests.service.conftest import launch_world


def _service_threads():
    return [t for t in threading.enumerate() if t.name.startswith(THREAD_PREFIX)]


def _connections():
    return [t for t in _service_threads() if t.name == f"{THREAD_PREFIX}conn"]


def _until(condition, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _read_to_eof(sock) -> bytes:
    data = b""
    while chunk := sock.recv(65536):
        data += chunk
    return data


def _healthz(sock) -> bytes:
    """One keep-alive request on a raw socket; its whole reply."""
    sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
    reply = b""
    while b'{"ok": true}' not in reply:
        chunk = sock.recv(65536)
        assert chunk, reply
        reply += chunk
    return reply


@pytest.fixture()
def server():
    """A trivial :class:`HttpServer`; closed, with its threads gone, after."""
    server = HttpServer(lambda request: HttpResponse(body=b'{"ok": true}'))
    server.start()
    yield server
    server.close()
    assert _service_threads() == []


def test_a_connection_past_the_bound_is_a_503_and_a_close(server, monkeypatch):
    monkeypatch.setattr(httpd, "MAX_CONNECTIONS", 2)
    held = [socket.create_connection(server.address, timeout=10) for _ in range(2)]
    try:
        for sock in held:
            assert _healthz(sock).startswith(b"HTTP/1.1 200 OK\r\n")
        with socket.create_connection(server.address, timeout=10) as extra:
            reply = _read_to_eof(extra)  # answered at accept, then closed
        head = reply.partition(b"\r\n\r\n")[0]
        assert head.startswith(b"HTTP/1.1 503 Service Unavailable\r\n"), reply[:200]
        assert b"\r\nConnection: close" in head
        assert len(_connections()) == 2
        for sock in held:  # the two served connections were not disturbed
            assert _healthz(sock).startswith(b"HTTP/1.1 200 OK\r\n")
    finally:
        for sock in held:
            sock.close()


def test_closing_a_connection_frees_its_slot(server, monkeypatch):
    monkeypatch.setattr(httpd, "MAX_CONNECTIONS", 1)
    client = ServiceClient("http://%s:%d" % server.address, timeout_s=10)
    for _ in range(3):  # one slot, taken and given back three times
        assert client.request("GET", "/v1/healthz")[0] == 200
        client.close()
        _until(lambda: _connections() == [])
    with socket.create_connection(server.address, timeout=10) as sock:
        assert _healthz(sock).startswith(b"HTTP/1.1 200 OK\r\n")


STALLS = {
    "idle-between-requests": b"GET /v1/healthz HTTP/1.1\r\n\r\n",
    "half-head": b"GET /v1/healthz HTTP/1.1\r\nx-partial: ",
    "half-body": b"POST /v1/healthz HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"a\": ",
}


@pytest.mark.parametrize("sent", STALLS.values(), ids=STALLS.keys())
def test_a_stalled_connection_is_closed_after_the_idle_timeout(server, monkeypatch, sent):
    monkeypatch.setattr(httpd, "IDLE_TIMEOUT_S", 0.3)
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(sent)
        started = time.monotonic()
        reply = _read_to_eof(sock)  # the server gives up on us, then closes
        waited = time.monotonic() - started
    assert reply.count(b"HTTP/1.1 ") == (1 if sent.endswith(b"\r\n\r\n") else 0)
    assert 0.2 < waited < 5
    _until(lambda: _connections() == [])


# -- close() with every kind of peer ---------------------------------------------


def test_close_returns_in_its_bound_and_leaves_no_thread():
    """An idle keep-alive peer, a peer stalled mid-head, a long-poll held
    on a request parked in its ECALL, and an open stream whose client has
    stopped reading: ``close()`` returns within its bound and every
    service thread is gone."""
    world = launch_world(
        tcs_count=2, poll_wait_cap_s=2.0, model_builder=lambda: build_tinylm(seed=7),
    )
    slow_decode = threading.Event()

    def decode_slowly(gate):  # one stream step per 20 ms until the test ends
        while not slow_decode.wait(0.02):
            gate.release(1)

    try:
        world.session.infer(world.x)  # warm
        client = world.remote.client
        address = world.service.address
        with held_ecalls("EC_MODEL_INF") as held, held_ecalls("EC_STREAM_STEP") as steps:
            stepper = threading.Thread(target=decode_slowly, args=(steps,))
            stepper.start()
            # an open stream, read once and then never again
            stream = world.session.stream([1, 2, 3], 1000)
            next(iter(stream))
            # a long-poll, parked server-side on a request held in its ECALL
            status, reply, _ = client.request("POST", "/v1/submit", world.payload())
            assert status == 202, reply
            held.wait_entered(1)
            polls = world.remote.stats()["service"]["requests"].get("results", 0)
            polled = []

            def poll():
                try:
                    polled.append(client.request(
                        "GET", f"/v1/results/{reply['req_id']}", query={"timeout_s": "30"},
                    )[0])
                except TransportError:
                    polled.append("closed")
                finally:
                    client.close()  # this thread's connection

            poller = threading.Thread(target=poll)
            poller.start()
            _until(lambda: world.remote.stats()["service"]["requests"].get("results", 0) > polls)
            # an idle keep-alive peer, and one stalled inside a head
            idle = ServiceClient(world.service.base_url)
            assert idle.request("GET", "/v1/healthz")[0] == 200
            stalled = socket.create_connection(address, timeout=10)
            stalled.sendall(b"GET /v1/healthz HTTP/1.1\r\n")
            _until(lambda: len(_connections()) >= 4)
            started = time.monotonic()
            world.service.close()
            took = time.monotonic() - started
            assert _service_threads() == []
            slow_decode.set()
            stepper.join(timeout=10)
            poller.join(timeout=10)
            stalled.close()
            idle.close()
        assert took < 6, f"close() took {took:.1f}s"  # the poll's 2 s cap, and slack
        assert polled == ["closed"]  # the long-poll ended at its cap, on a closed socket
        stream.cancel()
    finally:
        slow_decode.set()
        world.close()
    assert _service_threads() == []


def test_close_settles_the_results_it_still_holds():
    """A ``/v1/submit`` result that was served but never fetched holds the
    gateway's in-flight count, the router's pending count (FnPacker's
    Rule-1 pin, which also keeps ``retire`` off the endpoint) and an
    admission slot; ``close()`` expires it as the sweeper's TTL would."""
    world = launch_world()
    try:
        world.session.infer(world.x)  # warm
        client = world.remote.client
        status, reply, _ = client.request("POST", "/v1/submit", world.payload())
        assert status == 202, reply
        peek = f"/v1/results/{reply['req_id']}"
        _until(lambda: client.request("GET", peek, query={"peek": "1"})[1]["done"])
        gateway = world.service.gateway
        world.service.close()
        held = (
            gateway.in_flight,
            gateway.router.state(reply["endpoint"]).pending,
            world.service.admission.inflight_total,
        )
        assert held == (0, 0, 0), "(gateway in flight, router pending, admission)"
    finally:
        world.close()
    assert _service_threads() == []
