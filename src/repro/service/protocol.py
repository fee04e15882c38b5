"""The service wire protocol: what server and client must agree on.

Both ends speak one HTTP/1.1 subset, and its head codec lives here:
:func:`encode_head` writes a start line and headers, :func:`parse_head`
reads them back under the :data:`MAX_HEAD` / :data:`MAX_LINE` /
:data:`MAX_HEADERS` limits, and :func:`content_length` reads the one
length header.  Lines end in CRLF; a request body is ``Content-Length``
framed only (no chunked requests); a response body is
``Content-Length`` or ``Transfer-Encoding: chunked`` framed.

Bodies are :mod:`repro.core.wire` frames under one of two media types.
A ``/v1/stream`` reply is a chunked body of **records**, each
``u32 length || body``: a sealed token frame, or -- with
:data:`STREAM_ERROR_FLAG` set in the length -- one terminal
wire-encoded error (the status line was sent when the stream began, so
a mid-decode failure travels in-band).  Both sides import this module;
neither packs a length prefix itself.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import repro.core.wire as wire
from repro.errors import TransportError, from_wire, to_wire

#: media type of the binary wire framing (version byte 0x01)
BINARY_CONTENT_TYPE = "application/x-sesemi-wire"

#: high bit of a record's length prefix: terminal error, not a frame
STREAM_ERROR_FLAG = 0x80000000

#: the longest head (start line, headers and the blank line) either end reads
MAX_HEAD = 64 * 1024
#: the longest start or header line, and the most header lines, in one head
MAX_LINE = 8192
MAX_HEADERS = 64


def encode_head(start_line: str, headers: Mapping[str, str]) -> bytes:
    """A head on the wire: ``start_line``, ``headers``, the blank line.

    A field holding a CR or LF would end its line early and smuggle a
    header (or a whole request) in; it raises
    :class:`~repro.errors.TransportError` instead.
    """
    fields = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
    text = f"{start_line}\r\n{fields}\r\n"
    lines = len(headers) + 2
    if text.count("\n") != lines or text.count("\r") != lines:
        raise TransportError("a head field holds a CR or LF")
    return text.encode("latin-1")


def parse_head(head: bytes) -> Tuple[List[str], Dict[str, str]]:
    """A head without its blank line: the start line's fields and the headers.

    The start line splits at its first two spaces (``METHOD TARGET
    VERSION`` or ``VERSION STATUS REASON``); header names are
    lower-cased.  A line over :data:`MAX_LINE`, more than
    :data:`MAX_HEADERS` headers, or a header line without a colon raises
    :class:`~repro.errors.TransportError`.
    """
    lines = head.decode("latin-1").split("\r\n")
    if len(lines) > MAX_HEADERS + 1:
        raise TransportError(f"more than {MAX_HEADERS} header lines")
    if any(len(line) > MAX_LINE for line in lines):
        raise TransportError(f"a head line exceeds {MAX_LINE} bytes")
    headers = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if not colon:
            raise TransportError(f"malformed header line {line[:64]!r}")
        headers[name.strip().lower()] = value.strip()
    return lines[0].split(" ", 2), headers


def content_length(headers: Mapping[str, str]) -> Optional[int]:
    """The ``Content-Length`` header's byte count; ``None`` when absent.

    Only up to 18 ASCII digits count: a sign, a space or an underscore
    -- all of which :func:`int` would take -- raises
    :class:`~repro.errors.TransportError`.
    """
    value = headers.get("content-length")
    if value is None:
        return None
    if not (value.isascii() and value.isdigit() and len(value) <= 18):
        raise TransportError(f"malformed Content-Length {value[:32]!r}")
    return int(value)


def content_type(codec: wire.WireCodec) -> str:
    """The media type a body encoded with ``codec`` travels under."""
    return BINARY_CONTENT_TYPE if codec is wire.BINARY else "application/json"


def frame_record(frame: bytes) -> bytes:
    """One sealed token frame as a stream record."""
    return struct.pack(">I", len(frame)) + frame


def error_record(exc: BaseException) -> bytes:
    """The terminal record of a stream that failed mid-decode."""
    status, payload = to_wire(exc)
    body = wire.dumps(dict(payload, status=status))
    return struct.pack(">I", STREAM_ERROR_FLAG | len(body)) + body


def read_record(read: Callable[[int], bytes]) -> Optional[bytes]:
    """The next sealed frame off ``read(n)``; ``None`` at the end of the body.

    An error record raises the exception it carries; a body that ends
    inside a record raises :class:`~repro.errors.TransportError`.
    """
    prefix = read(4)
    if not prefix:
        return None  # a clean end, at a record boundary
    (length,) = struct.unpack(">I", _rest(read, prefix, 4))
    body = _rest(read, b"", length & ~STREAM_ERROR_FLAG)
    if length & STREAM_ERROR_FLAG:
        payload = wire.loads(body)
        raise from_wire(payload, payload.get("status"))
    return body


def _rest(read: Callable[[int], bytes], got: bytes, n: int) -> bytes:
    """``got`` extended to exactly ``n`` bytes off ``read``."""
    while len(got) < n:
        chunk = read(n - len(got))
        if not chunk:
            raise TransportError("stream truncated mid-record")
        got += chunk
    return got


__all__ = [
    "BINARY_CONTENT_TYPE", "MAX_HEAD", "MAX_HEADERS", "MAX_LINE",
    "STREAM_ERROR_FLAG", "content_length", "content_type", "encode_head",
    "error_record", "frame_record", "parse_head", "read_record",
]
