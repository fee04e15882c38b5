"""Wire codecs: roundtrips, version dispatch, codec equivalence."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import wire
from repro.core.wire import BINARY, JSON, WireCodec, WireError

BOTH = pytest.mark.parametrize("codec", [JSON, BINARY], ids=["json", "binary"])


@BOTH
def test_roundtrip_simple(codec):
    message = {"op": "register", "count": 3, "flag": True, "nothing": None}
    assert wire.loads(codec.dumps(message)) == message


@BOTH
def test_roundtrip_bytes(codec):
    message = {"key": b"\x00\x01\xff", "nested": {"blob": b"abc"}}
    assert wire.loads(codec.dumps(message)) == message


@BOTH
def test_roundtrip_lists(codec):
    message = {"items": [1, "two", b"three", {"four": 4}]}
    assert wire.loads(codec.dumps(message)) == message


@BOTH
def test_tuples_become_lists(codec):
    assert wire.loads(codec.dumps({"t": (1, 2)})) == {"t": [1, 2]}


@BOTH
def test_deterministic_encoding(codec):
    assert codec.dumps({"b": 1, "a": 2}) == codec.dumps({"a": 2, "b": 1})


@BOTH
def test_non_dict_rejected(codec):
    with pytest.raises(WireError):
        codec.dumps([1, 2, 3])  # type: ignore[arg-type]


@BOTH
def test_unencodable_value_rejected(codec):
    with pytest.raises(WireError):
        codec.dumps({"bad": object()})


@BOTH
def test_non_finite_floats_rejected(codec):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(WireError):
            codec.dumps({"x": bad})
        with pytest.raises(WireError):
            codec.dumps({"deep": [{"x": bad}]})


@BOTH
def test_reserved_tags_rejected(codec):
    # Both tags are reserved in both codecs: a payload dict carrying one
    # would be re-decoded as bytes (type confusion) on some path.
    for tag in ("__bytes_hex__", "__bytes_seg__"):
        with pytest.raises(WireError):
            codec.dumps({"k": {tag: "00"}})
        with pytest.raises(WireError):
            codec.dumps({"k": {tag: "00", "other": 1}})


def test_malformed_bytes_rejected():
    with pytest.raises(WireError):
        wire.loads(b"\xff\xfe not json")
    with pytest.raises(WireError):
        wire.loads(b"[1,2,3]")


def test_bad_hex_tag_rejected():
    with pytest.raises(WireError):
        wire.loads(b'{"k": {"__bytes_hex__": "zz"}}')


# -- version dispatch ---------------------------------------------------------


def test_dispatch_selects_codec_by_first_byte():
    message = {"blob": b"\x01\x02", "n": 7}
    json_frame = JSON.dumps(message)
    binary_frame = BINARY.dumps(message)
    assert json_frame[0] == ord("{")
    assert binary_frame[0] == wire.BINARY_VERSION
    assert wire.loads(json_frame) == message
    assert wire.loads(binary_frame) == message


def test_old_json_frames_still_decode():
    # A frame captured before the binary codec existed decodes unchanged
    # through the versioned dispatcher (backwards wire compatibility).
    old_frame = b'{"op": "register", "key": {"__bytes_hex__": "00ff"}}'
    assert wire.loads(old_frame) == {"op": "register", "key": b"\x00\xff"}


def test_empty_frame_rejected():
    with pytest.raises(WireError, match="empty"):
        wire.loads(b"")


def test_unknown_version_rejected():
    with pytest.raises(WireError, match="unknown wire frame version"):
        wire.loads(b"\x7f whatever")


def test_dumps_defaults_to_json():
    assert wire.dumps({"a": 1})[0] == ord("{")
    assert wire.dumps({"a": 1}, codec=BINARY)[0] == wire.BINARY_VERSION


def test_codecs_satisfy_protocol():
    assert isinstance(JSON, WireCodec)
    assert isinstance(BINARY, WireCodec)


# -- binary frame robustness --------------------------------------------------


def test_binary_ciphertext_is_not_hex_doubled():
    blob = bytes(range(256)) * 8
    frame = BINARY.dumps({"enc": blob})
    assert blob in frame  # raw segment, no hex expansion
    assert len(frame) < len(blob) + 128


def test_binary_truncated_frames_rejected():
    frame = BINARY.dumps({"blob": b"x" * 64, "n": 1})
    for cut in (1, 4, len(frame) // 2, len(frame) - 1):
        with pytest.raises(WireError):
            BINARY.loads(frame[:cut])


def test_binary_trailing_bytes_rejected():
    frame = BINARY.dumps({"blob": b"abc"})
    with pytest.raises(WireError, match="trailing"):
        BINARY.loads(frame + b"\x00")


@pytest.mark.parametrize(
    "skeleton,segments",
    [
        ({"blob": {"__bytes_seg__": 5}}, []),  # outside the segment list
        ({"blob": {"__bytes_seg__": True}}, [b"a", b"b"]),  # a bool is an int
        ({"a": {"__bytes_seg__": 0}, "b": {"__bytes_seg__": 0}}, [b"x"]),  # aliased
        ({"blob": {"__bytes_seg__": 0}}, [b"x", b"hidden"]),  # unreferenced
    ],
    ids=["out-of-range", "bool", "twice", "unreferenced"],
)
def test_binary_bad_segment_reference_rejected(skeleton, segments):
    # dumps emits integer refs naming each segment exactly once; a forged
    # field table that does anything else must fail, not crash, alias one
    # segment into two fields, or carry bytes no field names.
    import json as json_mod
    import struct

    header = json_mod.dumps(skeleton).encode()
    frame = b"".join(
        [bytes((wire.BINARY_VERSION,)), struct.pack(">I", len(header)), header,
         struct.pack(">I", len(segments))]
        + [struct.pack(">Q", len(s)) + s for s in segments]
    )
    with pytest.raises(WireError, match="segment"):
        BINARY.loads(frame)


def test_binary_segments_referenced_out_of_key_order_decode():
    # dumps numbers segments in insertion order but sorts the field table,
    # so a valid frame may name them in any order
    message = {"z": b"first", "a": [b"second", {"m": b"third"}]}
    assert BINARY.loads(BINARY.dumps(message)) == message


def test_binary_empty_bytes_and_duplicate_blobs():
    message = {"a": b"", "b": b"same", "c": b"same", "d": [b"", b"x"]}
    assert wire.loads(BINARY.dumps(message)) == message


# -- property tests: codec equivalence ---------------------------------------

simple_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**9), 10**9)
    | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=15,
)

messages = st.dictionaries(st.text(max_size=10), simple_values, max_size=6)


def normalise(value):
    if isinstance(value, (tuple, list)):
        return [normalise(v) for v in value]
    if isinstance(value, dict):
        return {k: normalise(v) for k, v in value.items()}
    return value


@settings(max_examples=60, deadline=None)
@given(message=messages)
def test_roundtrip_property_json(message):
    assert wire.loads(JSON.dumps(message)) == normalise(message)


@settings(max_examples=60, deadline=None)
@given(message=messages)
def test_roundtrip_property_binary(message):
    assert wire.loads(BINARY.dumps(message)) == normalise(message)


@settings(max_examples=60, deadline=None)
@given(message=messages)
def test_codecs_semantically_equivalent(message):
    # Same value domain, same decoded message -- only the framing differs.
    assert wire.loads(JSON.dumps(message)) == wire.loads(BINARY.dumps(message))


@settings(max_examples=30, deadline=None)
@given(message=messages, junk=st.binary(min_size=1, max_size=8))
def test_binary_frame_extension_never_silently_accepted(message, junk):
    frame = BINARY.dumps(message)
    with pytest.raises(WireError):
        BINARY.loads(frame + junk)
