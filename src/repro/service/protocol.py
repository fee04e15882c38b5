"""The service wire protocol: what server and client must agree on.

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
from typing import Callable, Optional

import repro.core.wire as wire
from repro.errors import TransportError, from_wire, to_wire

#: media type of the binary wire framing (version byte 0x01)
BINARY_CONTENT_TYPE = "application/x-sesemi-wire"

#: high bit of a record's length prefix: terminal error, not a frame
STREAM_ERROR_FLAG = 0x80000000


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
    "BINARY_CONTENT_TYPE", "STREAM_ERROR_FLAG", "content_type",
    "error_record", "frame_record", "read_record",
]
