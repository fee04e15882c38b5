"""The HTTP/1.1 subset both ends of the service tier speak.

Server side, over raw sockets: a request head it cannot take is
answered ``400`` with ``Connection: close`` (never a dropped socket and
a thread's traceback), and stopping the server ends every connection
thread cleanly.  Client side, against scripted servers: a request is one
write of head and body, a reply is read whole however TCP splits it, a
chunked ``/v1/stream`` body is de-chunked under its records, a reply
outside the subset is a :class:`~repro.errors.TransportError`, and each
thread keeps its own connection.
"""

import contextlib
import random
import socket
import sys
import threading
import time

import pytest

import repro.core.wire as wire
from repro.errors import TransportError
from repro.service.client import ServiceClient
from repro.service.httpd import THREAD_PREFIX, HttpResponse, HttpServer
from repro.service.protocol import frame_record


def _service_threads():
    return [t for t in threading.enumerate() if t.name.startswith(THREAD_PREFIX)]


@contextlib.contextmanager
def _serving(handler):
    """An :class:`HttpServer` on its own threads; yields its address and
    its ``close``, and checks that every thread it started has ended."""
    server = HttpServer(handler)
    address = server.start()
    try:
        yield address, lambda timeout_s=10: server.close(timeout_s)
    finally:
        server.close()
        assert _service_threads() == []


def _read_to_eof(sock) -> bytes:
    data = b""
    while chunk := sock.recv(65536):
        data += chunk
    return data


@pytest.fixture()
def thread_errors(monkeypatch):
    """Every exception that ended a thread, as ``threading.excepthook`` saw it."""
    seen = []
    monkeypatch.setattr(threading, "excepthook", lambda args: seen.append(args.exc_value))
    return seen


# -- server: a head it cannot take is a 400, then a close ---------------------------


REFUSED = {
    "negative-content-length": b"POST /v1/echo HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
    "non-numeric-content-length": b"POST /v1/echo HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
    "request-line-past-64KiB": b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
    "header-line-past-64KiB": b"GET / HTTP/1.1\r\nx-big: " + b"a" * 70_000 + b"\r\n\r\n",
    # the chunk holds a request: the subset has no chunked request bodies,
    # so it must not be served as the next request on the connection
    "chunked-request-body": (
        b"POST /v1/echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"19\r\nGET /v1/smuggled HTTP/1.1\r\n\r\n0\r\n\r\n"
    ),
}


@pytest.mark.parametrize("request_bytes", REFUSED.values(), ids=REFUSED.keys())
def test_a_head_outside_the_subset_is_a_400_and_a_close(request_bytes, thread_errors):
    served = []

    def handler(request):
        served.append(request.path)
        return HttpResponse(body=b"{}")

    with _serving(handler) as (address, stop):
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(request_bytes)
            reply = _read_to_eof(sock)  # the server closes after its answer
        stop()
    head = reply.partition(b"\r\n\r\n")[0]
    assert head.startswith(b"HTTP/1.1 400 Bad Request\r\n"), reply[:200]
    assert b"\r\nConnection: close" in head
    assert reply.count(b"HTTP/1.1 ") == 1  # one answer: nothing else was served
    assert served == []
    assert thread_errors == []


# -- server: stopping ends every connection thread cleanly --------------------------


def test_stopping_with_an_idle_keep_alive_connection_logs_nothing(thread_errors):
    def handler(request):
        return HttpResponse(body=b'{"ok": true}')

    with _serving(handler) as (address, stop):
        client = ServiceClient("http://%s:%d" % address)
        assert client.request("GET", "/v1/healthz")[:2] == (200, {"ok": True})
        stop()  # the client's connection is open and idle
        with pytest.raises(TransportError):
            client.request("GET", "/v1/healthz")
        client.close()
    assert thread_errors == []


def test_stopping_does_not_wait_for_a_peer_that_stopped_reading(thread_errors):
    """A reply the peer never reads fills both socket buffers and blocks
    the connection thread's write; ``stop()`` shuts the socket down,
    which returns that write, rather than wait for a drain."""
    served = threading.Event()

    def handler(request):
        served.set()
        return HttpResponse(body=b"x" * (16 << 20))

    with _serving(handler) as (address, stop):
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(b"GET /big HTTP/1.1\r\n\r\n")
            assert served.wait(timeout=10)
            time.sleep(0.2)  # the reply fills both socket buffers and stalls
            started = time.monotonic()
            stop(timeout_s=5)
            assert time.monotonic() - started < 5
            assert _service_threads() == []
    assert thread_errors == []


# -- client: one write per request --------------------------------------------------


class _CountingSocket:
    """A client socket that records every write it is asked to make."""

    def __init__(self, sock, writes):
        self._sock = sock
        self.writes = writes

    def sendall(self, data, *flags):
        self.writes.append(bytes(data))
        return self._sock.sendall(data, *flags)

    def send(self, data, *flags):
        self.writes.append(bytes(data))
        return self._sock.send(data, *flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.fixture()
def dialled(monkeypatch):
    """Every socket the client dials, each recording its writes."""
    dials = []
    real = socket.create_connection

    def counted(*args, **kwargs):
        sock = _CountingSocket(real(*args, **kwargs), [])
        dials.append(sock)
        return sock

    monkeypatch.setattr(socket, "create_connection", counted)
    return dials


def _echo(request):
    """The request body's wire frame, echoed back as a JSON reply."""
    time.sleep(random.random() * 1e-3)
    return HttpResponse(body=wire.dumps({"echo": wire.loads(request.body)}))


def test_a_post_is_one_write_of_head_and_body(dialled):
    payload = {"enc_request": bytes(range(256)) * 12, "uid": "u-1"}  # a hot-path size
    body = wire.dumps(payload, codec=wire.BINARY)
    with _serving(_echo) as (address, stop):
        client = ServiceClient("http://%s:%d" % address)
        for _ in range(2):
            status, reply, _ = client.request(
                "POST", "/v1/echo", payload, codec=wire.BINARY
            )
            assert (status, reply) == (200, {"echo": payload})
        client.close()
        stop()
    [sock] = dialled  # both POSTs rode one keep-alive connection
    assert len(sock.writes) == 2  # one write per POST
    for write in sock.writes:
        assert write.startswith(b"POST /v1/echo HTTP/1.1\r\n")
        assert write.endswith(b"\r\n\r\n" + body)


# -- client: reading replies however TCP splits them --------------------------------


class _Scripted(threading.Thread):
    """A raw server on one connection: reads each request (head plus
    ``Content-Length`` body) and answers it with ``answer(sock)``."""

    def __init__(self, answer):
        super().__init__(daemon=True)
        self.answer = answer
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self.listener.getsockname()[1]
        self.requests = 0

    def run(self):
        sock, _ = self.listener.accept()
        with sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            buffered = b""
            while True:
                while b"\r\n\r\n" not in buffered:
                    chunk = sock.recv(65536)
                    if not chunk:
                        return
                    buffered += chunk
                head, _, buffered = buffered.partition(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n")[1:]:
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                while len(buffered) < length:
                    buffered += sock.recv(65536)
                buffered = buffered[length:]
                self.requests += 1
                self.answer(sock)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.listener.close()
        self.join(timeout=10)
        assert not self.is_alive()


REPLY_HEAD = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 21\r\nx-trace-id: t-7\r\n\r\n"
)
REPLY_BODY = b'{"ok": true, "n": 42}'


def _byte_per_write(sock):
    for i in range(len(REPLY_HEAD + REPLY_BODY)):
        sock.sendall((REPLY_HEAD + REPLY_BODY)[i:i + 1])
        time.sleep(2e-4)


def _head_then_body(sock):
    sock.sendall(REPLY_HEAD)
    time.sleep(0.05)
    sock.sendall(REPLY_BODY)


@pytest.mark.parametrize(
    "answer", [_byte_per_write, _head_then_body], ids=["byte-per-write", "head-then-body"]
)
def test_a_reply_split_across_writes_is_read_whole(answer):
    with _Scripted(answer) as server:
        client = ServiceClient(server.url, timeout_s=10)
        for _ in range(2):  # the first reply left nothing behind on the connection
            status, reply, headers = client.request("POST", "/v1/x", {"a": 1})
            assert (status, reply) == (200, {"ok": True, "n": 42})
            assert headers["x-trace-id"] == "t-7"
        client.close()
    assert server.requests == 2


def test_a_chunked_stream_whose_chunks_split_its_records():
    frames = [b"frame-%d" % i * (i + 1) for i in range(6)]
    records = b"".join(frame_record(frame) for frame in frames)
    cuts = [0]
    while cuts[-1] < len(records):  # chunks of 1, 2, 3 ... bytes: every split point
        cuts.append(min(len(records), cuts[-1] + len(cuts)))

    def answer(sock):
        sock.sendall(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
        )
        for start, end in zip(cuts, cuts[1:]):
            sock.sendall(b"%x\r\n" % (end - start) + records[start:end] + b"\r\n")
            time.sleep(1e-3)
        sock.sendall(b"0\r\n\r\n")

    with _Scripted(answer) as server:
        stream = ServiceClient(server.url, timeout_s=10).open_stream("/v1/stream", {"a": 1})
        assert stream.result(timeout_s=10) == frames
        assert stream.done() and not stream.cancelled()
    assert server.requests == 1


@pytest.mark.parametrize("reply", [
    b"HTTP/2 200 OK\r\nContent-Length: 2\r\n\r\n{}",
    b"ICY 200 OK\r\nContent-Length: 2\r\n\r\n{}",
    b"HTTP/1.1 2x0 OK\r\nContent-Length: 2\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}",  # no framing
], ids=["http2", "not-http", "bad-status", "no-framing"])
def test_a_reply_outside_the_subset_is_a_transport_error(reply):
    def answer(sock):
        sock.sendall(reply)
        sock.shutdown(socket.SHUT_WR)  # a close-delimited body would end here

    with _Scripted(answer) as server:
        client = ServiceClient(server.url, timeout_s=10)
        with pytest.raises(TransportError, match="GET /v1/x failed"):
            client.request("GET", "/v1/x")
        client.close()
    assert server.requests == 1  # refused, not sent again


# -- client: one connection per thread ----------------------------------------------


def test_two_threads_on_one_client_never_cross_replies(dialled):
    """Each thread rides its own keep-alive connection, and every reply it
    reads answers its own request -- under a short switch interval."""
    rounds = 150
    failures = []
    with _serving(_echo) as (address, stop):
        client = ServiceClient("http://%s:%d" % address, timeout_s=10)

        def caller(name):
            try:
                for i in range(rounds):
                    payload = {"thread": name, "i": i}
                    status, reply, _ = client.request("POST", "/v1/echo", payload)
                    if (status, reply) != (200, {"echo": payload}):
                        failures.append((name, i, status, reply))
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append((name, repr(exc)))
            finally:
                client.close()  # this thread's connection

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(n,)) for n in ("a", "b")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stop()
    assert failures == []
    assert len(dialled) == 2  # one connection per thread, each kept alive
    for sock in dialled:
        senders = {wire.loads(write.partition(b"\r\n\r\n")[2])["thread"] for write in sock.writes}
        assert len(senders) == 1 and len(sock.writes) == rounds
