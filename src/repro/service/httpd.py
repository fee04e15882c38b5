"""A minimal asyncio HTTP/1.1 server (stdlib only).

Just enough HTTP for the service tier: one read of the request head
(parsed by :func:`repro.service.protocol.parse_head`, the codec the
client shares), ``Content-Length`` bodies, keep-alive, chunked
**responses** (for the streaming route), and bounded head/body sizes.
Deliberately **not** a general web server -- no chunked request bodies
(a request carrying ``Transfer-Encoding`` is refused), no TLS (the
payloads are AEAD ciphertext end to end; see ``docs/service.md``), no
pipelining guarantees beyond serial handling per connection.  A head it
cannot parse is answered ``400`` with ``Connection: close``.

The handler is one coroutine ``async def handler(request) ->
HttpResponse``; anything it raises is mapped by the caller-supplied
``error_mapper`` so exception policy stays out of the transport.  A
handler may instead return a :class:`StreamingHttpResponse` whose body
is an async iterator of chunks -- the server writes each as one
``Transfer-Encoding: chunked`` chunk as it is produced, which is what
lets sealed token frames reach the client mid-decode.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.errors import TransportError
from repro.service.protocol import MAX_HEAD, content_length, encode_head, parse_head

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
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    def encode(self, keep_alive: bool) -> bytes:
        """Serialise status line, headers, and body to raw HTTP/1.1."""
        framing = {"Content-Length": str(len(self.body))}
        return _encode_head(self, framing, keep_alive) + self.body


class StreamingHttpResponse:
    """A chunked response: the body is produced *while* it is sent.

    ``chunks`` is an async iterator of byte chunks; each becomes one
    HTTP/1.1 chunk on the wire, flushed as soon as it is yielded.  If
    the iterator raises after the head has been written there is no way
    to change the status line, so the server terminates the chunked body
    abnormally (connection close without the final ``0`` chunk) -- the
    client's de-chunking read surfaces that as a truncated stream.
    """

    def __init__(
        self,
        chunks,
        status: int = 200,
        content_type: str = "application/octet-stream",
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.status = status
        self.chunks = chunks
        self.content_type = content_type
        self.headers = dict(headers or {})

    def encode_head(self, keep_alive: bool) -> bytes:
        """Serialise the status line and headers (chunked framing)."""
        return _encode_head(self, {"Transfer-Encoding": "chunked"}, keep_alive)


class HttpError(Exception):
    """A transport-level refusal (bad request line, oversized body)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


Handler = Callable[[HttpRequest], Awaitable[HttpResponse]]
ErrorMapper = Callable[[BaseException], HttpResponse]


class AsyncHttpServer:
    """Serve ``handler`` over HTTP/1.1 on an asyncio event loop."""

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
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self.address: Optional[Tuple[str, int]] = None

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port, limit=MAX_HEAD
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def stop(self) -> None:
        """Stop accepting and tear down every live connection task."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    # -- connection handling ---------------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        """Serve one connection's requests in turn; the task always returns.

        :meth:`stop` ends it by cancellation, which aborts the socket --
        bytes the peer never read are dropped, so a peer that stopped
        reading cannot hold the close up -- and the task returns
        normally: a connection task that ends *cancelled* makes asyncio's
        own done-callback log a traceback.
        """
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except asyncio.IncompleteReadError:
                    break  # peer closed between requests (or inside a head)
                except HttpError as exc:
                    response = HttpResponse(
                        status=exc.status,
                        body=str(exc).encode(),
                        content_type="text/plain",
                    )
                    writer.write(response.encode(keep_alive=False))
                    await writer.drain()
                    break
                keep_alive = (
                    request.headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                try:
                    response = await self._handler(request)
                except Exception as exc:  # the mapper owns exception policy
                    if self._error_mapper is None:
                        raise
                    response = self._error_mapper(exc)
                if isinstance(response, StreamingHttpResponse):
                    if not await self._write_chunked(writer, response, keep_alive):
                        break  # body aborted mid-stream: the connection dies
                else:
                    writer.write(response.encode(keep_alive))
                    await writer.drain()
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            writer.transport.abort()
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass  # closed either way; a second cancel ends the task here too

    async def _write_chunked(
        self, writer, response: StreamingHttpResponse, keep_alive: bool
    ) -> bool:
        """Pump a chunked body; ``False`` means the connection must die."""
        writer.write(response.encode_head(keep_alive))
        await writer.drain()
        try:
            async for chunk in response.chunks:
                if not chunk:
                    continue  # an empty chunk would terminate the body early
                writer.write(
                    f"{len(chunk):x}\r\n".encode("latin-1") + chunk + b"\r\n"
                )
                await writer.drain()
        except Exception:
            # the status line is gone; truncating the chunked body is the
            # only honest failure signal left (client sees a short read).
            # Close the producer NOW so its cleanup (e.g. cancelling the
            # upstream stream) runs promptly instead of at GC time.
            aclose = getattr(response.chunks, "aclose", None)
            if aclose is not None:
                try:
                    await aclose()
                except Exception:
                    pass
            return False
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        return True

    async def _read_request(self, reader) -> HttpRequest:
        """The next request: its head in one read, then its body."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise HttpError(400, f"request head exceeds {MAX_HEAD} bytes") from None
        try:
            fields, headers = parse_head(head[:-4])
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
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = dict(parse_qsl(split.query))
        return HttpRequest(
            method=method.upper(),
            path=split.path,
            query=query,
            headers=headers,
            body=body,
        )


__all__ = [
    "AsyncHttpServer",
    "Handler",
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "StreamingHttpResponse",
]
