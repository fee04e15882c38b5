"""HttpServer chunked responses: framing, aborts, producer cleanup.

These tests drive :class:`StreamingHttpResponse` through a raw
``http.client`` reader: chunk framing must round-trip, a producer
exception after the head is written must surface as a truncated body
(the only honest failure signal left once the status line is gone), and
the aborted producer's ``close()`` must run promptly so upstream
cleanup (cancelling a gateway stream) is not deferred to GC.
"""

import http.client
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro.service.httpd import (
    HttpResponse,
    HttpServer,
    StreamingHttpResponse,
)


class _Httpd:
    """An HttpServer on its own threads around one handler."""

    def __init__(self, handler):
        self._server = HttpServer(handler)
        self.address = self._server.start()

    def connect(self) -> http.client.HTTPConnection:
        host, port = self.address
        return http.client.HTTPConnection(host, port, timeout=10)

    def close(self):
        self._server.close()


@pytest.fixture()
def httpd_factory():
    servers = []

    def launch(handler):
        server = _Httpd(handler)
        servers.append(server)
        return server

    yield launch
    for server in servers:
        server.close()


def test_chunked_body_roundtrips(httpd_factory):
    def chunks():
        yield b"alpha"
        yield b""  # an empty chunk must be skipped, not end the body
        yield b"beta" * 100
        yield b"\x00\xff"

    def handler(request):
        del request
        return StreamingHttpResponse(chunks(), headers={"x-kind": "stream"})

    server = httpd_factory(handler)
    conn = server.connect()
    conn.request("GET", "/stream")
    response = conn.getresponse()
    assert response.status == 200
    assert response.getheader("Transfer-Encoding") == "chunked"
    assert response.getheader("x-kind") == "stream"
    assert response.read() == b"alpha" + b"beta" * 100 + b"\x00\xff"
    conn.close()


def test_chunks_flush_before_the_body_ends(httpd_factory):
    release = threading.Event()

    def chunks():
        yield b"first"
        # hold the body open until the client proves it saw the first
        # chunk -- this fails if the server buffers the whole body
        while not release.is_set():
            time.sleep(0.01)
        yield b"second"

    def handler(request):
        del request
        return StreamingHttpResponse(chunks())

    server = httpd_factory(handler)
    conn = server.connect()
    conn.request("GET", "/stream")
    response = conn.getresponse()
    assert response.read(5) == b"first"
    release.set()
    assert response.read() == b"second"
    conn.close()


def test_producer_crash_truncates_the_body(httpd_factory):
    cleaned = threading.Event()

    def chunks():
        try:
            yield b"partial"
            raise RuntimeError("decode failed mid-stream")
        finally:
            cleaned.set()  # close() must run promptly, not at GC

    def handler(request):
        del request
        return StreamingHttpResponse(chunks())

    server = httpd_factory(handler)
    conn = server.connect()
    conn.request("GET", "/stream")
    response = conn.getresponse()
    assert response.read(7) == b"partial"
    with pytest.raises(http.client.IncompleteRead):
        response.read()  # connection died without the terminal 0-chunk
    assert cleaned.wait(timeout=5)
    conn.close()


def test_client_hangup_closes_the_producer(httpd_factory):
    closed = threading.Event()

    def chunks():
        try:
            while True:
                yield b"x" * 1024
                time.sleep(0.005)
        finally:
            closed.set()

    def handler(request):
        del request
        return StreamingHttpResponse(chunks())

    server = httpd_factory(handler)
    conn = server.connect()
    conn.request("GET", "/stream")
    response = conn.getresponse()
    assert response.read(1024)  # the stream is live
    conn.close()  # hang up mid-body
    # the server's next write fails and it must close() the producer --
    # upstream this is what cancels an abandoned inference stream
    assert closed.wait(timeout=5)


def test_plain_responses_keep_the_connection_alive_after_a_stream(
    httpd_factory,
):
    def handler(request):
        if urlsplit(request.path).path == "/stream":
            def chunks():
                yield b"streamed"

            return StreamingHttpResponse(chunks())
        return HttpResponse(body=b'{"plain": true}')

    server = httpd_factory(handler)
    conn = server.connect()
    conn.request("GET", "/stream")
    assert conn.getresponse().read() == b"streamed"
    conn.request("GET", "/other")  # same socket: keep-alive survived
    assert conn.getresponse().read() == b'{"plain": true}'
    conn.close()
