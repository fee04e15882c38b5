"""Versioned wire codecs for protocol messages.

Protocol payloads travel as byte strings: KeyService operations and
SeMIRT key-provisioning requests over RA-TLS channels, encrypted
request/response payloads between clients and enclaves, and the HTTP
bodies of the service tier.  Two codecs share one frame namespace,
selected by the **first byte** of every frame:

- :class:`JsonWireCodec` -- the original canonical JSON format.  Bytes
  values are hex-tagged (``{"__bytes_hex__": "..."}``), keys are
  sorted, NaN/Infinity are refused.  Every JSON frame starts with
  ``{`` (0x7B), which doubles as its version byte.  Debuggable and
  deterministic; still used for KeyService/RA-TLS control messages and
  sealed state.
- :class:`BinaryWireCodec` -- version byte 0x01.  A length-prefixed
  binary framing (``version byte || field table || raw bytes
  segments``): the message skeleton is a canonical-JSON *field table*
  whose bytes leaves are replaced by segment references, and the raw
  bytes travel verbatim after it.  Large ciphertext payloads are no
  longer hex-doubled; decoding slices them straight out of the frame.

:func:`loads` dispatches on the version byte, so old JSON frames keep
decoding unchanged and receivers never need to know what the sender
chose.  :func:`dumps` defaults to JSON; hot-path callers opt into
``codec=BINARY``.

This module is deliberately stdlib-only (plus ``repro.errors``) so it
stays importable from every layer; ``scripts/check_layering.py``
enforces that.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Any, List, Tuple

try:  # pragma: no cover - typing fallback exercised only on old runtimes
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

from repro.errors import ReproError

_BYTES_TAG = "__bytes_hex__"
_SEGMENT_TAG = "__bytes_seg__"

#: version byte of the binary framing; JSON frames open with ``{`` (0x7B)
BINARY_VERSION = 0x01
_JSON_FIRST_BYTE = 0x7B  # ord("{")

_HEADER_LEN = struct.Struct(">I")
_SEGMENT_COUNT = struct.Struct(">I")
_SEGMENT_LEN = struct.Struct(">Q")


class WireError(ReproError):
    """Malformed wire message."""


def _encode_value(value: Any) -> Any:
    if isinstance(value, (bytes, bytearray)):
        return {_BYTES_TAG: bytes(value).hex()}
    if isinstance(value, dict):
        # both tags are reserved: a payload dict carrying one would be
        # re-decoded as bytes on the other side (a type-confusion hole)
        for tag in (_BYTES_TAG, _SEGMENT_TAG):
            if tag in value:
                raise WireError(
                    f"key {tag!r} is reserved for the bytes encoding"
                )
        return {k: _encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        # NaN/Infinity are not valid JSON and NaN breaks canonical
        # (comparable) encoding; refuse rather than emit extensions
        raise WireError(f"non-finite float {value!r} cannot go on the wire")
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise WireError(f"cannot encode {type(value).__name__} on the wire")


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value.keys()) == {_BYTES_TAG}:
            try:
                return bytes.fromhex(value[_BYTES_TAG])
            except (TypeError, ValueError) as exc:
                raise WireError(f"bad hex payload: {exc}") from exc
        for tag in (_BYTES_TAG, _SEGMENT_TAG):
            if tag in value:
                raise WireError(
                    f"key {tag!r} is reserved for the bytes encoding"
                )
        return {k: _decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    return value


@runtime_checkable
class WireCodec(Protocol):
    """One frame format: dict in, bytes out, and back."""

    def dumps(self, message: dict) -> bytes:  # pragma: no cover - protocol
        """Serialise a message dict to one wire frame."""
        ...

    def loads(self, raw: bytes) -> dict:  # pragma: no cover - protocol
        """Inverse of :meth:`dumps` for this codec's frames only."""
        ...


class JsonWireCodec:
    """Canonical JSON frames (sorted keys, hex-tagged bytes, no NaN)."""

    version = _JSON_FIRST_BYTE

    def dumps(self, message: dict) -> bytes:
        """Serialise ``message`` as one canonical JSON frame."""
        if not isinstance(message, dict):
            raise WireError("wire messages must be dicts")
        try:
            return json.dumps(
                _encode_value(message), sort_keys=True, allow_nan=False
            ).encode()
        except ValueError as exc:
            raise WireError(f"unencodable wire message: {exc}") from exc

    def loads(self, raw: bytes) -> dict:
        """Decode one JSON frame (bytes values arrive hex-tagged)."""
        try:
            value = json.loads(bytes(raw).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError(f"malformed wire message: {exc}") from exc
        if not isinstance(value, dict):
            raise WireError("wire messages must decode to dicts")
        return _decode_value(value)


class BinaryWireCodec:
    """Binary frames: ``0x01 || field table || raw bytes segments``.

    Frame layout (all integers big-endian)::

        0x01                          version byte
        u32  header_len
        header_len bytes              canonical-JSON field table; every
                                      bytes leaf is {"__bytes_seg__": i}
        u32  segment_count
        segment_count x (u64 len || len raw bytes)

    The field table reuses the JSON codec's canonical rules (sorted
    keys, no NaN, reserved tags refused), so the two codecs accept and
    produce exactly the same value domain; only the bytes transport
    differs.  Decoding slices segments directly out of the frame --
    ciphertext never round-trips through hex -- and, like :meth:`dumps`,
    insists that every reference is an integer and that each segment is
    referenced exactly once: no aliased and no unreferenced bytes.
    """

    version = BINARY_VERSION

    def dumps(self, message: dict) -> bytes:
        """Serialise ``message`` as one binary frame (see class docs)."""
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
        """Decode one binary frame, slicing segments without copies."""
        view = memoryview(raw)
        if len(view) < 1 + _HEADER_LEN.size or view[0] != BINARY_VERSION:
            raise WireError("not a binary wire frame")
        offset = 1
        (header_len,) = _HEADER_LEN.unpack_from(view, offset)
        offset += _HEADER_LEN.size
        if offset + header_len + _SEGMENT_COUNT.size > len(view):
            raise WireError("truncated binary wire frame")
        try:
            skeleton = json.loads(bytes(view[offset : offset + header_len]).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError(f"malformed wire field table: {exc}") from exc
        if not isinstance(skeleton, dict):
            raise WireError("wire messages must decode to dicts")
        offset += header_len
        (count,) = _SEGMENT_COUNT.unpack_from(view, offset)
        offset += _SEGMENT_COUNT.size
        spans: List[Tuple[int, int]] = []
        for _ in range(count):
            if offset + _SEGMENT_LEN.size > len(view):
                raise WireError("truncated binary wire frame")
            (length,) = _SEGMENT_LEN.unpack_from(view, offset)
            offset += _SEGMENT_LEN.size
            if offset + length > len(view):
                raise WireError("truncated binary wire frame")
            spans.append((offset, offset + length))
            offset += length
        if offset != len(view):
            raise WireError("trailing bytes after binary wire frame")
        referenced: set = set()
        message = self._graft_bytes(skeleton, view, spans, referenced)
        if len(referenced) != count:
            # dumps emits exactly one reference per segment
            raise WireError("unreferenced segment in binary wire frame")
        return message

    # -- skeleton walks --------------------------------------------------------

    def _strip_bytes(self, value: Any, segments: List[bytes]) -> Any:
        if isinstance(value, (bytes, bytearray)):
            segments.append(bytes(value))
            return {_SEGMENT_TAG: len(segments) - 1}
        if isinstance(value, dict):
            for tag in (_BYTES_TAG, _SEGMENT_TAG):
                if tag in value:
                    raise WireError(
                        f"key {tag!r} is reserved for the bytes encoding"
                    )
            return {k: self._strip_bytes(v, segments) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [self._strip_bytes(v, segments) for v in value]
        if isinstance(value, float) and not math.isfinite(value):
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
            for tag in (_BYTES_TAG, _SEGMENT_TAG):
                if tag in value:
                    raise WireError(
                        f"key {tag!r} is reserved for the bytes encoding"
                    )
            return {
                k: self._graft_bytes(v, view, spans, referenced)
                for k, v in value.items()
            }
        if isinstance(value, list):
            return [self._graft_bytes(v, view, spans, referenced) for v in value]
        return value


#: shared codec instances (both are stateless and thread-safe)
JSON = JsonWireCodec()
BINARY = BinaryWireCodec()

_CODECS_BY_VERSION = {
    _JSON_FIRST_BYTE: JSON,
    BINARY_VERSION: BINARY,
}


def dumps(message: dict, codec: "WireCodec" = JSON) -> bytes:
    """Serialise ``message`` with ``codec`` (canonical JSON by default).

    Hot-path callers pass ``codec=wire.BINARY`` so ciphertext travels
    as raw segments; control-plane messages keep the JSON default.
    """
    return codec.dumps(message)


def loads(raw: bytes) -> dict:
    """Decode one frame of *any* known version.

    The first byte selects the codec: ``{`` (0x7B) is a canonical JSON
    frame, 0x01 is the binary framing.  Anything else is refused, so a
    frame can never be mis-parsed as the wrong format.
    """
    if not raw:
        raise WireError("empty wire frame")
    codec = _CODECS_BY_VERSION.get(raw[0])
    if codec is None:
        raise WireError(f"unknown wire frame version 0x{raw[0]:02x}")
    return codec.loads(raw)


def corrupt(raw: bytes, bit_index: int = 0) -> bytes:
    """Flip one bit of a wire message (fault-injection helper).

    Used by :mod:`repro.faults` to model in-flight corruption.  All
    protocol payloads are AEAD-protected, so a single flipped bit must
    surface as an authentication failure at the receiver, never as a
    silently different message.  Works on frames of every version.
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
    "JSON",
    "JsonWireCodec",
    "WireCodec",
    "WireError",
    "corrupt",
    "dumps",
    "loads",
]
