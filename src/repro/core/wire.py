"""The wire frame: the one format of every protocol message.

Protocol payloads travel as byte strings: KeyService operations and
SeMIRT key-provisioning requests over RA-TLS channels, the RA-TLS
handshake offer, sealed KeyService checkpoints, and the HTTP bodies of
the service tier.  Each is one frame of :class:`BinaryWireCodec`
(``version byte || field table || raw bytes segments``): the message
skeleton is a canonical-JSON *field table* whose bytes leaves are
replaced by segment references, and the raw bytes travel verbatim after
it, so ciphertext is never hex-doubled and decoding slices it straight
out of the frame.

The encoding is canonical -- one message has exactly one frame -- and
:func:`loads` is the only reader: a frame that :func:`dumps` would not
write is refused with :class:`WireError`, never any other exception.

This module is deliberately stdlib-only (plus ``repro.errors``) so it
stays importable from every layer; ``scripts/check_layering.py``
enforces that.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Any, List, Tuple

from repro.errors import ReproError

_SEGMENT_TAG = "__bytes_seg__"
#: the shortest reference a field table can hold, ``{"__bytes_seg__":0}``
_MIN_REFERENCE = len(json.dumps({_SEGMENT_TAG: 0}, separators=(",", ":")))

#: the version byte every frame opens with
BINARY_VERSION = 0x01

_HEADER_LEN = struct.Struct(">I")
_SEGMENT_COUNT = struct.Struct(">I")
_SEGMENT_LEN = struct.Struct(">Q")


class WireError(ReproError):
    """Malformed wire message."""


class BinaryWireCodec:
    """Frames ``0x01 || field table || raw bytes segments``.

    Frame layout (all integers big-endian)::

        0x01                          version byte
        u32  header_len
        header_len bytes              canonical-JSON field table; every
                                      bytes leaf is {"__bytes_seg__": i}
        u32  segment_count
        segment_count x (u64 len || len raw bytes)

    The field table has sorted keys and no NaN, and segments are
    numbered in the order a sorted-key walk meets them, so one message
    has exactly one frame.  Decoding insists that every reference is an
    integer and that each segment is referenced exactly once: no aliased
    and no unreferenced bytes.
    """

    def dumps(self, message: dict) -> bytes:
        """Serialise ``message`` as one frame (see class docs)."""
        if not isinstance(message, dict):
            raise WireError("wire messages must be dicts")
        segments: List[bytes] = []
        skeleton = self._strip_bytes(message, segments)
        try:
            header = json.dumps(
                skeleton, sort_keys=True, allow_nan=False
            ).encode()
        except ValueError as exc:
            raise WireError(f"unencodable wire message: {exc}") from exc
        parts = [
            bytes((BINARY_VERSION,)),
            _HEADER_LEN.pack(len(header)),
            header,
            _SEGMENT_COUNT.pack(len(segments)),
        ]
        for segment in segments:
            parts.append(_SEGMENT_LEN.pack(len(segment)))
            parts.append(segment)
        return b"".join(parts)

    def loads(self, raw: bytes) -> dict:
        """Decode one frame, slicing segments without copies."""
        view = memoryview(raw)
        if not view:
            raise WireError("empty wire frame")
        if view[0] != BINARY_VERSION:
            raise WireError(f"unknown wire frame version 0x{view[0]:02x}")
        offset = 1 + _HEADER_LEN.size
        if offset > len(view):
            raise WireError("truncated wire frame")
        (header_len,) = _HEADER_LEN.unpack_from(view, 1)
        header = view[offset : offset + header_len]
        offset += header_len
        if offset + _SEGMENT_COUNT.size > len(view):
            raise WireError("truncated wire frame")
        (count,) = _SEGMENT_COUNT.unpack_from(view, offset)
        offset += _SEGMENT_COUNT.size
        if count > header_len // _MIN_REFERENCE:
            # refused before a single segment is read
            raise WireError(
                f"{count} segments, more than a {header_len}-byte field "
                f"table can reference"
            )
        spans: List[Tuple[int, int]] = []
        for _ in range(count):
            if offset + _SEGMENT_LEN.size > len(view):
                raise WireError("truncated wire frame")
            (length,) = _SEGMENT_LEN.unpack_from(view, offset)
            offset += _SEGMENT_LEN.size
            if offset + length > len(view):
                raise WireError("truncated wire frame")
            spans.append((offset, offset + length))
            offset += length
        if offset != len(view):
            raise WireError("trailing bytes after wire frame")
        referenced: set = set()
        try:
            skeleton = json.loads(bytes(header).decode())
            message = self._graft_bytes(skeleton, view, spans, referenced)
        except ValueError as exc:  # not UTF-8, not JSON, or an over-long int
            raise WireError(f"malformed wire field table: {exc}") from exc
        except RecursionError as exc:
            raise WireError("wire field table nests too deeply") from exc
        if not isinstance(message, dict):
            raise WireError("wire messages must decode to dicts")
        if len(referenced) != count:
            # dumps emits exactly one reference per segment
            raise WireError("unreferenced segment in wire frame")
        return message

    # -- skeleton walks --------------------------------------------------------

    def _strip_bytes(self, value: Any, segments: List[bytes]) -> Any:
        if isinstance(value, (bytes, bytearray)):
            segments.append(bytes(value))
            return {_SEGMENT_TAG: len(segments) - 1}
        if isinstance(value, dict):
            # the tag is reserved: a payload dict carrying it would be
            # re-decoded as bytes on the other side (a type-confusion hole)
            if _SEGMENT_TAG in value:
                raise WireError(
                    f"key {_SEGMENT_TAG!r} is reserved for the bytes encoding"
                )
            # in the field table's order, so segments number canonically
            return {k: self._strip_bytes(value[k], segments) for k in sorted(value)}
        if isinstance(value, (list, tuple)):
            return [self._strip_bytes(v, segments) for v in value]
        if isinstance(value, float) and not math.isfinite(value):
            # NaN/Infinity are not valid JSON and NaN breaks canonical
            # (comparable) encoding; refuse rather than emit extensions
            raise WireError(
                f"non-finite float {value!r} cannot go on the wire"
            )
        if isinstance(value, (str, int, float, bool)) or value is None:
            return value
        raise WireError(f"cannot encode {type(value).__name__} on the wire")

    def _graft_bytes(
        self, value: Any, view: memoryview, spans: List[Tuple[int, int]], referenced: set
    ) -> Any:
        if isinstance(value, dict):
            if set(value.keys()) == {_SEGMENT_TAG}:
                index = value[_SEGMENT_TAG]
                # a real int (a bool is an int too), in range, referenced once
                if (
                    type(index) is not int
                    or not 0 <= index < len(spans)
                    or index in referenced
                ):
                    raise WireError(f"bad segment reference {index!r}")
                referenced.add(index)
                start, stop = spans[index]
                return bytes(view[start:stop])
            if _SEGMENT_TAG in value:
                raise WireError(
                    f"key {_SEGMENT_TAG!r} is reserved for the bytes encoding"
                )
            return {
                k: self._graft_bytes(v, view, spans, referenced)
                for k, v in value.items()
            }
        if isinstance(value, list):
            return [self._graft_bytes(v, view, spans, referenced) for v in value]
        return value


#: the one codec (stateless and thread-safe); kept as a name because
#: bench/ passes ``codec=wire.BINARY``
BINARY = BinaryWireCodec()


def dumps(message: dict, codec: BinaryWireCodec = BINARY) -> bytes:
    """Serialise ``message`` as one frame."""
    # ``codec`` takes only the one codec; it stays because bench/ passes it
    return codec.dumps(message)


def loads(raw: bytes) -> dict:
    """Decode one frame; anything :func:`dumps` would not write raises
    :class:`WireError`."""
    return BINARY.loads(raw)


def corrupt(raw: bytes, bit_index: int = 0) -> bytes:
    """Flip one bit of a wire message (fault-injection helper).

    Used by :mod:`repro.faults` to model in-flight corruption.  All
    protocol payloads are AEAD-protected, so a single flipped bit must
    surface as an authentication failure at the receiver, never as a
    silently different message.
    """
    if not raw:
        return raw
    index = (bit_index // 8) % len(raw)
    mutated = bytearray(raw)
    mutated[index] ^= 1 << (bit_index % 8)
    return bytes(mutated)


__all__ = [
    "BINARY",
    "BINARY_VERSION",
    "BinaryWireCodec",
    "WireError",
    "corrupt",
    "dumps",
    "loads",
]
