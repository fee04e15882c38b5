"""The wire frame: roundtrips, canonical encoding, hostile frames refused."""

import json
import math
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import wire
from repro.core.wire import BINARY, WireError

#: the one codec, under the case ids these tests have always had
ONE = pytest.mark.parametrize("codec", [BINARY], ids=["binary"])


@ONE
def test_roundtrip_simple(codec):
    message = {"op": "register", "count": 3, "flag": True, "nothing": None}
    assert wire.loads(codec.dumps(message)) == message


@ONE
def test_roundtrip_bytes(codec):
    message = {"key": b"\x00\x01\xff", "nested": {"blob": b"abc"}}
    assert wire.loads(codec.dumps(message)) == message


@ONE
def test_roundtrip_lists(codec):
    message = {"items": [1, "two", b"three", {"four": 4}]}
    assert wire.loads(codec.dumps(message)) == message


@ONE
def test_tuples_become_lists(codec):
    assert wire.loads(codec.dumps({"t": (1, 2)})) == {"t": [1, 2]}


@ONE
def test_deterministic_encoding(codec):
    assert codec.dumps({"b": 1, "a": 2}) == codec.dumps({"a": 2, "b": 1})
    # bytes leaves too: segments number in the field table's order, not
    # in the order the dict was built
    assert codec.dumps({"z": b"1", "a": b"2"}) == codec.dumps({"a": b"2", "z": b"1"})
    nested = {"m": {"y": b"3", "b": [b"4", {"q": b"5", "c": b"6"}]}, "a": b"7"}
    shuffled = {"a": b"7", "m": {"b": [b"4", {"c": b"6", "q": b"5"}], "y": b"3"}}
    assert codec.dumps(nested) == codec.dumps(shuffled)


@ONE
def test_non_dict_rejected(codec):
    with pytest.raises(WireError):
        codec.dumps([1, 2, 3])  # type: ignore[arg-type]


@ONE
def test_unencodable_value_rejected(codec):
    with pytest.raises(WireError):
        codec.dumps({"bad": object()})


@ONE
def test_non_finite_floats_rejected(codec):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(WireError):
            codec.dumps({"x": bad})
        with pytest.raises(WireError):
            codec.dumps({"deep": [{"x": bad}]})


@ONE
def test_reserved_tags_rejected(codec):
    # A payload dict carrying the segment tag would be re-decoded as
    # bytes (type confusion) on the other side.
    with pytest.raises(WireError):
        codec.dumps({"k": {"__bytes_seg__": "00"}})
    with pytest.raises(WireError):
        codec.dumps({"k": {"__bytes_seg__": "00", "other": 1}})


def test_malformed_bytes_rejected():
    with pytest.raises(WireError):
        wire.loads(b"\xff\xfe not json")
    with pytest.raises(WireError):
        wire.loads(b"[1,2,3]")


# -- the version byte ---------------------------------------------------------


def test_empty_frame_rejected():
    with pytest.raises(WireError, match="empty"):
        wire.loads(b"")


def test_unknown_version_rejected():
    with pytest.raises(WireError, match="unknown wire frame version"):
        wire.loads(b"\x7f whatever")


# -- binary frame robustness --------------------------------------------------


def frame_of(header: bytes, segments) -> bytes:
    """A frame around a hand-written field table and segment table."""
    return b"".join(
        [bytes((wire.BINARY_VERSION,)), struct.pack(">I", len(header)), header,
         struct.pack(">I", len(segments))]
        + [struct.pack(">Q", len(s)) + s for s in segments]
    )


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
    with pytest.raises(WireError, match="segment"):
        BINARY.loads(frame_of(json.dumps(skeleton).encode(), segments))


def test_binary_segments_referenced_out_of_key_order_decode():
    # dumps numbers segments in the field table's order, but a frame whose
    # table names them in another order still decodes
    header = json.dumps(
        {"a": {"__bytes_seg__": 1}, "z": {"__bytes_seg__": 0}}
    ).encode()
    frame = frame_of(header, [b"first", b"second"])
    assert BINARY.loads(frame) == {"z": b"first", "a": b"second"}
    message = {"z": b"first", "a": [b"second", {"m": b"third"}]}
    assert BINARY.loads(BINARY.dumps(message)) == message


def test_a_deeply_nested_field_table_is_a_wire_error():
    # json.loads and the segment graft both recurse; a hostile table
    # must not surface as a RecursionError
    header = b'{"a": ' + b"[" * 5000 + b"]" * 5000 + b"}"
    with pytest.raises(WireError, match="nests too deeply"):
        wire.loads(frame_of(header, []))
    # a shallower table may pass json.loads and overflow in the graft;
    # either way it decodes whole or is a WireError
    for depth in range(100, 1100, 100):
        nested = b'{"a": ' + b"[" * depth + b'{"__bytes_seg__": 0}' + b"]" * depth + b"}"
        try:
            decoded = wire.loads(frame_of(nested, [b"x"]))
        except WireError as exc:
            assert "nests too deeply" in str(exc)
        else:
            leaf, levels = decoded["a"], 0
            while isinstance(leaf, list):
                leaf, levels = leaf[0], levels + 1
            assert (leaf, levels) == (b"x", depth)


def test_a_segment_count_the_field_table_cannot_reference_is_refused_before_reading():
    # every reference costs at least 19 field-table bytes, so 1M empty
    # segments behind a 2-byte table are refused without reading one
    count = 1 << 20
    frame = frame_of(b"{}", [])[:-4] + struct.pack(">I", count) + bytes(8 * count)
    assert len(frame) > 8 << 20
    tracemalloc.start()
    try:
        with pytest.raises(WireError, match="segment"):
            wire.loads(frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    # the bound is exact: it admits the densest table dumps writes, and
    # the shortest reference a table can hold
    tight = {"k": [b""] * 100}
    assert wire.loads(wire.dumps(tight)) == tight
    reference = b'{"__bytes_seg__":0}'
    assert len(reference) == 19
    assert wire.loads(frame_of(b'{"a":' + reference + b"}", [b"x"])) == {"a": b"x"}
    with pytest.raises(WireError, match="segments"):
        wire.loads(frame_of(b'{"a":' + reference + b"}", [b"x", b"y"]))


def test_binary_empty_bytes_and_duplicate_blobs():
    message = {"a": b"", "b": b"same", "c": b"same", "d": [b"", b"x"]}
    assert wire.loads(BINARY.dumps(message)) == message


# -- property tests -----------------------------------------------------------

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
def test_roundtrip_property_binary(message):
    assert wire.loads(BINARY.dumps(message)) == normalise(message)


@settings(max_examples=30, deadline=None)
@given(message=messages, junk=st.binary(min_size=1, max_size=8))
def test_binary_frame_extension_never_silently_accepted(message, junk):
    frame = BINARY.dumps(message)
    with pytest.raises(WireError):
        BINARY.loads(frame + junk)
