"""A minimal blocking HTTP/1.1 server (stdlib only).

Just enough HTTP for the service tier: one read of the request head
(parsed by :func:`repro.service.protocol.parse_head`, the codec the
client shares), ``Content-Length`` bodies, keep-alive, chunked
**responses** (for the streaming route), and bounded head/body sizes.
Deliberately **not** a general web server -- no chunked request bodies
(a request carrying ``Transfer-Encoding`` is refused), no TLS (the
payloads are AEAD ciphertext end to end; see ``docs/service.md``), no
pipelining guarantees beyond serial handling per connection.  A head it
cannot parse is answered ``400`` with ``Connection: close``.

One acceptor thread, and one thread per connection that serves that
connection's requests in turn: the handler is a plain function
``handler(request) -> HttpResponse`` that runs on the connection's own
thread, end to end.  Anything it raises is mapped by the caller-supplied
``error_mapper`` so exception policy stays out of the transport.  A
handler may instead return a :class:`StreamingHttpResponse` whose body
is an iterator of chunks -- the server writes each as one
``Transfer-Encoding: chunked`` chunk as it is produced, which is what
lets sealed token frames reach the client mid-decode.

Bounds: at most :data:`MAX_CONNECTIONS` connections are served at once
(one past it is answered ``503`` + close at accept), and a connection
idle between requests, or stalled inside one, for
:data:`IDLE_TIMEOUT_S` is closed.  :meth:`HttpServer.close` stops
accepting and shuts every live socket down, so blocked reads and
writes return.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.errors import TransportError
from repro.service.protocol import (
    BINARY_CONTENT_TYPE, MAX_HEAD, content_length, encode_head, parse_head,
)

#: connections served at once; the next one is answered 503 and closed
MAX_CONNECTIONS = 256
#: seconds a connection may sit idle between requests, or stall in one
IDLE_TIMEOUT_S = 60.0
#: the name prefix of every thread the service tier starts
THREAD_PREFIX = "svc-"
#: bytes one ``recv`` asks the kernel for
_RECV = 65536

_REASONS = {
    200: "OK", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 403: "Forbidden", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 410: "Gone",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 502: "Bad Gateway",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]  # lower-cased names
    body: bytes


def _encode_head(response, framing: Dict[str, str], keep_alive: bool) -> bytes:
    """Status line and headers of either response kind; ``framing`` is
    the header that says how the body ends."""
    status = response.status
    return encode_head(
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        {
            "Content-Type": response.content_type,
            **framing,
            "Connection": "keep-alive" if keep_alive else "close",
            **response.headers,
        },
    )


@dataclass
class HttpResponse:
    """One response to serialise."""

    status: int = 200
    body: bytes = b""
    content_type: str = BINARY_CONTENT_TYPE
    headers: Dict[str, str] = field(default_factory=dict)

    def encode(self, keep_alive: bool) -> bytes:
        """Serialise status line, headers, and body to raw HTTP/1.1."""
        framing = {"Content-Length": str(len(self.body))}
        return _encode_head(self, framing, keep_alive) + self.body


class StreamingHttpResponse:
    """A chunked response: the body is produced *while* it is sent.

    ``chunks`` is an iterator of byte chunks; each becomes one HTTP/1.1
    chunk on the wire, written as soon as it is yielded.  If the
    iterator raises after the head has been written there is no way to
    change the status line, so the server terminates the chunked body
    abnormally (connection close without the final ``0`` chunk) -- the
    client's de-chunking read surfaces that as a truncated stream.
    """

    def __init__(
        self,
        chunks: Iterable[bytes],
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.status = status
        self.chunks = chunks
        self.content_type = BINARY_CONTENT_TYPE
        self.headers = dict(headers or {})

    def encode_head(self, keep_alive: bool) -> bytes:
        """Serialise the status line and headers (chunked framing)."""
        return _encode_head(self, {"Transfer-Encoding": "chunked"}, keep_alive)


class HttpError(Exception):
    """A transport-level refusal (bad request line, oversized body)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


Handler = Callable[[HttpRequest], HttpResponse]
ErrorMapper = Callable[[BaseException], HttpResponse]


def _refusal(status: int, message: str) -> bytes:
    return HttpResponse(status, message.encode(), "text/plain").encode(keep_alive=False)


class HttpServer:
    """Serve ``handler`` over HTTP/1.1, one thread per connection."""

    def __init__(
        self,
        handler: Handler,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = 8 * 1024 * 1024,
        error_mapper: Optional[ErrorMapper] = None,
    ) -> None:
        self._handler = handler
        self._host = host
        self._port = port
        self._max_body = max_body_bytes
        self._error_mapper = error_mapper
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        #: live connection sockets and the thread serving each
        self._live: Dict[socket.socket, threading.Thread] = {}
        self._lock = threading.Lock()
        self._closing = False
        self.address: Optional[Tuple[str, int]] = None

    def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns ``(host, port)``."""
        self._listener = socket.create_server((self._host, self._port))
        self.address = self._listener.getsockname()[:2]
        self._acceptor = threading.Thread(
            target=self._accept_loop, name=f"{THREAD_PREFIX}accept", daemon=True
        )
        self._acceptor.start()
        return self.address

    def close(self, timeout_s: float = 10.0) -> None:
        """Stop accepting, shut every live connection down, join the threads.

        Shutting a socket down returns a read or write blocked on it, so
        an idle peer or one that stopped reading cannot hold this up; a
        handler blocked elsewhere (a long-poll) ends at its own bound.
        """
        with self._lock:
            self._closing = True
            live = dict(self._live)
        if self._listener is not None:
            _shutdown(self._listener)  # wakes the blocked accept()
        for sock in live:
            _shutdown(sock)
        deadline = time.monotonic() + timeout_s
        for thread in [self._acceptor, *live.values()]:
            if thread is not None:
                thread.join(max(0.0, deadline - time.monotonic()))
        if self._listener is not None:
            self._listener.close()

    # -- connection handling ---------------------------------------------------

    def _accept_loop(self) -> None:
        """Accept until :meth:`close`; a connection past the bound is a 503."""
        listener = self._listener
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:
                return  # close() shut the listener down
            with self._lock:
                refused = self._closing or len(self._live) >= MAX_CONNECTIONS
                if not refused:
                    thread = threading.Thread(
                        target=self._serve_connection, args=(sock,),
                        name=f"{THREAD_PREFIX}conn", daemon=True,
                    )
                    self._live[sock] = thread
                    thread.start()  # under the lock: close() joins started threads only
            if refused:
                with sock:
                    try:
                        sock.sendall(_refusal(503, f"more than {MAX_CONNECTIONS} connections"))
                    except OSError:
                        pass

    def _serve_connection(self, sock: socket.socket) -> None:
        """Serve one connection's requests in turn, then close it."""
        try:
            sock.settimeout(IDLE_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            buffered = bytearray()
            while True:
                try:
                    request = self._read_request(sock, buffered)
                except HttpError as exc:
                    sock.sendall(_refusal(exc.status, str(exc)))
                    _linger(sock)
                    break
                if request is None:
                    break  # peer closed between requests (or inside one)
                keep_alive = request.headers.get("connection", "keep-alive").lower() != "close"
                try:
                    response = self._handler(request)
                except Exception as exc:  # the mapper owns exception policy
                    if self._error_mapper is None:
                        raise
                    response = self._error_mapper(exc)
                if isinstance(response, StreamingHttpResponse):
                    if not self._write_chunked(sock, response, keep_alive):
                        break  # body aborted mid-stream: the connection dies
                else:
                    sock.sendall(response.encode(keep_alive))
                if not keep_alive:
                    break
        except OSError:
            pass  # reset, timed out, or shut down by close()
        finally:
            with self._lock:
                self._live.pop(sock, None)
            sock.close()

    def _write_chunked(self, sock, response: StreamingHttpResponse, keep_alive: bool) -> bool:
        """Write a chunked body; ``False`` means the connection must die."""
        try:
            sock.sendall(response.encode_head(keep_alive))
            for chunk in response.chunks:
                if chunk:  # an empty chunk would terminate the body early
                    sock.sendall(b"%x\r\n%b\r\n" % (len(chunk), chunk))
        except Exception:
            # the producer failed, or a write did: truncating the body is
            # the only honest failure signal left (the client sees a short
            # read).  Close the producer NOW so its cleanup (cancelling
            # the upstream stream) runs at once, not at GC time.
            close = getattr(response.chunks, "close", None)
            if close is not None:
                close()
            return False
        sock.sendall(b"0\r\n\r\n")
        return True

    def _read_request(self, sock, buffered: bytearray) -> Optional[HttpRequest]:
        """The next request off ``sock``; ``None`` if the peer closed first.

        ``buffered`` holds what was read past the previous request.
        """
        end = buffered.find(b"\r\n\r\n")
        while end < 0:
            if len(buffered) > MAX_HEAD:
                break
            chunk = sock.recv(_RECV)
            if not chunk:
                return None
            buffered += chunk
            end = buffered.find(b"\r\n\r\n", max(0, len(buffered) - len(chunk) - 3))
        if end < 0 or end + 4 > MAX_HEAD:
            raise HttpError(400, f"request head exceeds {MAX_HEAD} bytes")
        head = bytes(buffered[:end])
        del buffered[:end + 4]
        try:
            fields, headers = parse_head(head)
            length = content_length(headers) or 0
        except TransportError as exc:
            raise HttpError(400, str(exc)) from None
        if len(fields) != 3 or " " in fields[2]:
            raise HttpError(400, "malformed request line")
        method, target, version = fields
        if not version.startswith("HTTP/1."):
            raise HttpError(400, f"unsupported version {version}")
        if "transfer-encoding" in headers:
            raise HttpError(400, "request bodies are Content-Length framed only")
        if length > self._max_body:
            raise HttpError(413, f"body exceeds {self._max_body} bytes")
        while len(buffered) < length:
            chunk = sock.recv(max(_RECV, length - len(buffered)))
            if not chunk:
                return None
            buffered += chunk
        body = bytes(buffered[:length])
        del buffered[:length]
        split = urlsplit(target)
        return HttpRequest(
            method=method.upper(),
            path=split.path,
            query=dict(parse_qsl(split.query)),
            headers=headers,
            body=body,
        )


def _shutdown(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already closed by its own thread


def _linger(sock: socket.socket) -> None:
    """End a refused connection: read what the peer already sent (up to
    one head's worth), so closing does not reset the refusal away."""
    sock.shutdown(socket.SHUT_WR)
    drained = 0
    while drained <= MAX_HEAD:
        chunk = sock.recv(_RECV)
        if not chunk:
            return
        drained += len(chunk)


__all__ = [
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "HttpServer",
    "IDLE_TIMEOUT_S",
    "MAX_CONNECTIONS",
    "Handler",
    "StreamingHttpResponse",
    "THREAD_PREFIX",
]
