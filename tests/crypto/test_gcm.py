"""AES-GCM: NIST vectors, authentication, AAD binding, seal/open."""

import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import gcm
from repro.crypto.gcm import (
    _CHUNK_LEVELS,
    _MAX_SPARES,
    AESGCM,
    GHASH_TABLE_CAP_BYTES,
    NONCE_SIZE,
    RESERVOIR_BLOCKS,
    SESSION_CACHE_CAPACITY,
    TAG_SIZE,
    _gf_mult,
    _multiply,
    evict_session,
    frame_nonce,
    session_cache_size,
)
from repro.crypto.aes import AES
from repro.crypto.keys import SymmetricKey
from repro.errors import InvalidKey, InvalidTag

# NIST GCM test vectors (McGrew & Viega test cases 1-4, AES-128).
NIST_CASES = [
    # (key, iv, plaintext, aad, ciphertext, tag)
    (
        "00000000000000000000000000000000",
        "000000000000000000000000",
        "",
        "",
        "",
        "58e2fccefa7e3061367f1d57a4e7455a",
    ),
    (
        "00000000000000000000000000000000",
        "000000000000000000000000",
        "00000000000000000000000000000000",
        "",
        "0388dace60b6a392f328c2b971b2fe78",
        "ab6e47d42cec13bdf53a67b21257bddf",
    ),
    (
        "feffe9928665731c6d6a8f9467308308",
        "cafebabefacedbaddecaf888",
        "d9313225f88406e5a55909c5aff5269a"
        "86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525"
        "b16aedf5aa0de657ba637b391aafd255",
        "",
        "42831ec2217774244b7221b784d0d49c"
        "e3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa05"
        "1ba30b396a0aac973d58e091473f5985",
        "4d5c2af327cd64a62cf35abd2ba6fab4",
    ),
    (
        "feffe9928665731c6d6a8f9467308308",
        "cafebabefacedbaddecaf888",
        "d9313225f88406e5a55909c5aff5269a"
        "86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525"
        "b16aedf5aa0de657ba637b39",
        "feedfacedeadbeeffeedfacedeadbeefabaddad2",
        "42831ec2217774244b7221b784d0d49c"
        "e3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa05"
        "1ba30b396a0aac973d58e091",
        "5bc94fbc3221a5db94fae95ae7121a47",
    ),
]


@pytest.mark.parametrize("key,iv,pt,aad,ct,tag", NIST_CASES)
def test_nist_encrypt_vectors(key, iv, pt, aad, ct, tag):
    cipher = AESGCM(bytes.fromhex(key))
    out = cipher.encrypt(bytes.fromhex(iv), bytes.fromhex(pt), bytes.fromhex(aad))
    assert out[:-TAG_SIZE].hex() == ct
    assert out[-TAG_SIZE:].hex() == tag


@pytest.mark.parametrize("key,iv,pt,aad,ct,tag", NIST_CASES)
def test_nist_decrypt_vectors(key, iv, pt, aad, ct, tag):
    cipher = AESGCM(bytes.fromhex(key))
    wire = bytes.fromhex(ct) + bytes.fromhex(tag)
    assert cipher.decrypt(bytes.fromhex(iv), wire, bytes.fromhex(aad)).hex() == pt


def test_tampered_ciphertext_rejected():
    cipher = AESGCM(b"k" * 16)
    wire = cipher.encrypt(b"n" * 12, b"attack at dawn")
    for position in range(len(wire)):
        corrupted = bytearray(wire)
        corrupted[position] ^= 0x01
        with pytest.raises(InvalidTag):
            cipher.decrypt(b"n" * 12, bytes(corrupted))


def test_tampered_aad_rejected():
    cipher = AESGCM(b"k" * 16)
    wire = cipher.encrypt(b"n" * 12, b"payload", aad=b"model-1")
    with pytest.raises(InvalidTag):
        cipher.decrypt(b"n" * 12, wire, aad=b"model-2")


def test_wrong_nonce_rejected():
    cipher = AESGCM(b"k" * 16)
    wire = cipher.encrypt(b"n" * 12, b"payload")
    with pytest.raises(InvalidTag):
        cipher.decrypt(b"m" * 12, wire)


def test_wrong_key_rejected():
    wire = AESGCM(b"k" * 16).encrypt(b"n" * 12, b"payload")
    with pytest.raises(InvalidTag):
        AESGCM(b"j" * 16).decrypt(b"n" * 12, wire)


def test_truncated_ciphertext_rejected():
    cipher = AESGCM(b"k" * 16)
    with pytest.raises(InvalidTag):
        cipher.decrypt(b"n" * 12, b"short")


def test_non_default_nonce_length_supported():
    cipher = AESGCM(b"k" * 16)
    wire = cipher.encrypt(b"long-nonce-16byte", b"payload")
    assert cipher.decrypt(b"long-nonce-16byte", wire) == b"payload"


def test_seal_open_roundtrip():
    cipher = AESGCM(b"k" * 16)
    blob = cipher.seal(b"secret model", aad=b"ctx")
    assert cipher.unseal(blob, aad=b"ctx") == b"secret model"
    assert len(blob) == NONCE_SIZE + len(b"secret model") + TAG_SIZE


def test_open_rejects_short_blob():
    with pytest.raises(InvalidTag):
        AESGCM(b"k" * 16).unseal(b"tiny")


def test_accepts_symmetric_key_objects():
    key = SymmetricKey.generate()
    cipher = AESGCM(key)
    assert cipher.unseal(cipher.seal(b"data")) == b"data"


@settings(max_examples=25, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    nonce=st.binary(min_size=12, max_size=12),
    plaintext=st.binary(min_size=0, max_size=200),
    aad=st.binary(min_size=0, max_size=64),
)
def test_roundtrip_property(key, nonce, plaintext, aad):
    cipher = AESGCM(key)
    assert cipher.decrypt(nonce, cipher.encrypt(nonce, plaintext, aad), aad) == plaintext


@settings(max_examples=15, deadline=None)
@given(
    plaintext=st.binary(min_size=1, max_size=100),
    flip=st.integers(min_value=0, max_value=10_000),
)
def test_any_bitflip_detected_property(plaintext, flip):
    cipher = AESGCM(b"k" * 16)
    wire = bytearray(cipher.encrypt(b"n" * 12, plaintext))
    index = flip % (len(wire) * 8)
    wire[index // 8] ^= 1 << (index % 8)
    with pytest.raises(InvalidTag):
        cipher.decrypt(b"n" * 12, bytes(wire))


def test_large_payload_roundtrip():
    cipher = AESGCM(b"k" * 16)
    payload = bytes(range(256)) * 2048  # 512 KiB
    assert cipher.unseal(cipher.seal(payload)) == payload


# -- the keystream reservoir behind seal() --------------------------------------


def reservoir_nonces(cipher):
    """The nonces of ``cipher``'s pre-drawn slots, after checking the bound."""
    slots = list(cipher._reservoir)
    held = sum(len(keystream) for _, keystream in slots)
    assert held == cipher._reservoir_blocks <= RESERVOIR_BLOCKS
    assert all(keystream.base is None for _, keystream in slots)  # copied out of its batch
    return [nonce for nonce, _ in slots]


@pytest.mark.parametrize(
    "length", [0, 1, 15, 16, 17, 64, 89, 111, 112, 113, 3120, 4080, 4096, 65536]
)
def test_seal_is_the_explicit_nonce_path(length):
    """Every seal -- a miss, a spare slot, a slot an open filled -- equals
    ``nonce + encrypt(nonce, pt, aad)`` through the unchanged explicit-nonce
    path, and opens under ``open()``."""
    rng = np.random.default_rng(length)
    cipher, oracle = AESGCM(b"k" * 16), AESGCM(b"k" * 16)
    drawn = 0
    for _ in range(6):
        plaintext, aad = rng.bytes(length), rng.bytes(int(rng.integers(0, 40)))
        pending = reservoir_nonces(cipher)
        blob = cipher.seal(plaintext, aad)
        drawn += blob[:NONCE_SIZE] in pending
        assert blob[NONCE_SIZE:] == oracle.encrypt(blob[:NONCE_SIZE], plaintext, aad)
        reservoir_nonces(cipher)
        assert cipher.unseal(blob, aad) == plaintext
        reservoir_nonces(cipher)
    # the first seal misses; every later one takes the slot the miss or an open left
    assert drawn == (5 if 1 + -(-length // 16) <= RESERVOIR_BLOCKS else 0)


def test_seal_uses_fresh_nonces():
    """A 64 B seal then a 200 B seal under one cipher: distinct nonces, and
    the 64 B spare slot the first left behind is dropped, never extended."""
    cipher = AESGCM(b"k" * 16)
    first = cipher.seal(bytes(64))[:NONCE_SIZE]
    (short,) = reservoir_nonces(cipher)
    assert len(cipher._reservoir[0][1]) == 1 + 4
    second = cipher.seal(bytes(200))[:NONCE_SIZE]
    assert len({first, short, second}) == 3
    assert short not in reservoir_nonces(cipher)
    assert [len(keystream) for _, keystream in cipher._reservoir] == [1 + 13] * 2
    later = [cipher.seal(bytes(200))[:NONCE_SIZE] for _ in range(40)]
    reservoir_nonces(cipher)
    assert len({first, short, second, *later}) == 3 + len(later)


def test_a_message_over_the_cap_never_touches_the_reservoir():
    assert 16 * RESERVOIR_BLOCKS == 4096
    cipher = AESGCM(b"k" * 16)
    cipher.seal(bytes(4080))  # 256 blocks: its spare slot fills the reservoir exactly
    held = reservoir_nonces(cipher)
    assert cipher._reservoir_blocks == RESERVOIR_BLOCKS
    for length in (4096, 65536):
        blob = cipher.seal(bytes(length))
        assert blob[:NONCE_SIZE] not in held
        assert reservoir_nonces(cipher) == held  # neither drawn nor dropped
        assert cipher.unseal(blob) == bytes(length)
        assert reservoir_nonces(cipher) == held
    fresh = AESGCM(b"k" * 16)
    assert fresh.unseal(fresh.seal(bytes(4096))) == bytes(4096)
    assert reservoir_nonces(fresh) == []  # an open sizes no slot by an over-cap seal


def test_open_adds_one_slot_the_size_of_the_last_seal():
    """Not the size of the message it opens: opening a 3 KiB request must
    not pre-draw 197 blocks for an 89 B reply."""
    cipher, peer = AESGCM(b"k" * 16), AESGCM(b"k" * 16)
    request = peer.seal(bytes(3120))
    cipher.unseal(request)
    assert reservoir_nonces(cipher) == []  # never sealed: nothing to size a slot by
    cipher.seal(bytes(89))  # a miss and one spare slot ...
    cipher.seal(bytes(89))  # ... which this seal takes
    assert reservoir_nonces(cipher) == []
    cipher.unseal(request)
    assert [len(keystream) for _, keystream in cipher._reservoir] == [1 + 6]
    cipher.unseal(request)  # not empty: no second slot
    assert len(reservoir_nonces(cipher)) == 1


RUN_KEY = bytes(range(16))


@settings(max_examples=40, deadline=None)
@given(
    nonce=st.binary(min_size=NONCE_SIZE, max_size=NONCE_SIZE),
    first=st.integers(0, 2**32 - 8),
    count=st.integers(1, 8),
    length=st.integers(0, 40),
)
def test_a_keystream_run_is_the_explicit_nonce_keystreams(nonce, first, count, length):
    """Row ``k`` of a run is the keystream of nonce ``N xor (first + k)``:
    block ``j`` is ``E_K(nonce || 1 + j)``, checked against the block
    cipher itself, and its CTR bytes are what ``encrypt`` XORs in."""
    cipher, block = AESGCM(RUN_KEY), AES(RUN_KEY)
    run = cipher.keystream_run(nonce, first, count, length)
    blocks = 1 + -(-length // 16)
    assert run.shape == (count, blocks, 16)
    for k in range(count):
        frame = frame_nonce(nonce, first + k)
        assert frame[:8] == nonce[:8]
        assert int.from_bytes(frame[8:], "big") ^ int.from_bytes(nonce[8:], "big") == first + k
        want = b"".join(
            block.encrypt_block(frame + (1 + j).to_bytes(4, "big")) for j in range(blocks)
        )
        assert run[k].tobytes() == want
        assert run[k].tobytes()[16 : 16 + length] == cipher.encrypt(frame, bytes(length))[:length]


@settings(max_examples=40, deadline=None)
@given(
    nonce=st.binary(min_size=NONCE_SIZE, max_size=NONCE_SIZE),
    index=st.integers(0, 1023),
    plaintext=st.binary(max_size=40),
    aad=st.binary(max_size=24),
)
def test_seal_and_open_with_a_drawn_keystream_are_encrypt_and_decrypt(
    nonce, index, plaintext, aad
):
    cipher, oracle = AESGCM(RUN_KEY), AESGCM(RUN_KEY)
    (keystream,) = cipher.keystream_run(nonce, index, 1, len(plaintext))
    frame = frame_nonce(nonce, index)
    blob = cipher.seal_with(frame, keystream, plaintext, aad)
    assert blob == frame + oracle.encrypt(frame, plaintext, aad)
    assert cipher.open_with(keystream, blob, aad) == plaintext
    assert oracle.decrypt(frame, blob[NONCE_SIZE:], aad) == plaintext
    tampered = bytearray(blob)
    tampered[-1] ^= 1
    with pytest.raises(InvalidTag):
        cipher.open_with(keystream, bytes(tampered), aad)
    with pytest.raises(InvalidTag):
        cipher.open_with(keystream, blob, aad + b"x")


def _bitwise_ghash(h: bytes, aad: bytes, ciphertext: bytes) -> bytes:
    """GHASH block by block with the specification's bitwise multiply."""
    def blocks(data):
        data += bytes(-len(data) % 16)
        return [data[i : i + 16] for i in range(0, len(data), 16)]

    lengths = (8 * len(aad)).to_bytes(8, "big") + (8 * len(ciphertext)).to_bytes(8, "big")
    y, key = 0, int.from_bytes(h, "big")
    for block in blocks(aad) + blocks(ciphertext) + [lengths]:
        y = _gf_mult(y ^ int.from_bytes(block, "big"), key)
    return y.to_bytes(16, "big")


@settings(max_examples=60, deadline=None)
@given(aad=st.binary(max_size=40), ciphertext=st.binary(max_size=16))
def test_a_one_block_message_hashes_as_a_memoised_prefix_and_one_multiply(aad, ciphertext):
    cipher = AESGCM(RUN_KEY)
    want = _bitwise_ghash(cipher._h, aad, ciphertext)
    assert cipher._ghash(aad, ciphertext).tobytes() == want
    for _ in range(2):  # the first call fills the memo, the second reads it
        assert cipher._short_ghash(aad, ciphertext).to_bytes(16, "big") == want
    assert (aad, len(ciphertext)) in cipher._prefixes


def test_the_prefix_memo_is_bounded():
    cipher = AESGCM(RUN_KEY)
    for n in range(3 * gcm._MAX_PREFIXES):
        cipher.seal(bytes(9), aad=b"frame" + bytes([n]))
        assert 0 < len(cipher._prefixes) <= gcm._MAX_PREFIXES


def test_open_drawing_is_open_plus_a_run_in_one_batch(monkeypatch):
    cipher, peer = AESGCM(RUN_KEY), AESGCM(RUN_KEY)
    blob, nonce = peer.seal(bytes(100), b"a"), bytes(range(12))
    batches = []
    real = AES.encrypt_blocks
    monkeypatch.setattr(
        AES, "encrypt_blocks", lambda self, b: (batches.append(len(b)), real(self, b))[1]
    )
    plaintext, run = cipher.unseal_drawing(blob, b"a", nonce, 5, 9)
    assert batches == [1 + 7 + 5 * 2]
    monkeypatch.undo()
    assert plaintext == bytes(100)
    assert np.array_equal(run, cipher.keystream_run(nonce, 0, 5, 9))
    with pytest.raises(InvalidTag):
        cipher.unseal_drawing(blob, b"b", nonce, 5, 9)


def test_open_with_refuses_a_blob_longer_than_its_keystream():
    cipher = AESGCM(RUN_KEY)
    (keystream,) = cipher.keystream_run(bytes(12), 0, 1, 9)
    blob = cipher.encrypt(bytes(12), bytes(17))
    with pytest.raises(InvalidTag):
        cipher.open_with(keystream, bytes(12) + blob)
    with pytest.raises(InvalidTag):
        cipher.open_with(keystream, bytes(NONCE_SIZE + TAG_SIZE - 1))


def test_a_keystream_run_refills_an_empty_reservoir_like_an_open():
    cipher = AESGCM(RUN_KEY)
    cipher.keystream_run(bytes(12), 0, 3, 9)
    assert reservoir_nonces(cipher) == []  # never sealed: nothing to size a slot by
    cipher.seal(bytes(89))  # a miss and one spare slot ...
    cipher.seal(bytes(89))  # ... which this seal takes
    cipher.keystream_run(bytes(12), 3, 3, 9)
    assert [len(keystream) for _, keystream in cipher._reservoir] == [1 + 6]


def test_seal_misses_double_their_spare_slots():
    cipher = AESGCM(b"k" * 16)
    added = []
    for _ in range(100):
        missed = not cipher._reservoir
        cipher.seal(bytes(64))
        held = reservoir_nonces(cipher)
        if missed:
            added.append(len(held))
    assert added == [1, 2, 4, 8, 16, _MAX_SPARES, _MAX_SPARES] and _MAX_SPARES == 32


def test_racing_misses_stock_only_what_fits(monkeypatch):
    """Two seal misses size their spares against the same empty reservoir
    (the second runs while the first draws its nonces): both stock, and the
    reservoir keeps only what fits under the cap."""
    cipher = AESGCM(b"k" * 16)
    real, raced = gcm.random_bytes, []

    def racing(count):
        if not raced:
            raced.append(True)
            cipher.seal(bytes(3120))
        return real(count)

    monkeypatch.setattr(gcm, "random_bytes", racing)
    cipher.seal(bytes(3120))
    assert raced and len(reservoir_nonces(cipher)) == 1  # 2 x 197 blocks would not fit


# -- key validation ----------------------------------------------------------


@pytest.mark.parametrize("bad", [16, 32, 16.0, None, "k" * 16, [0] * 16])
def test_non_bytes_key_is_refused_not_zero_filled(bad):
    """``bytes(16)`` is sixteen zero bytes: an int must never become a key."""
    cached = session_cache_size()
    with pytest.raises(InvalidKey):
        AESGCM(bad)
    with pytest.raises(InvalidKey):
        AESGCM.derive(bad)
    with pytest.raises(InvalidKey):
        evict_session(bad)
    assert session_cache_size() == cached


def test_bytes_like_keys_are_accepted():
    wire = AESGCM(b"k" * 16).encrypt(b"n" * 12, b"payload")
    for key in (bytearray(b"k" * 16), memoryview(b"k" * 16), SymmetricKey(b"k" * 16)):
        assert AESGCM(key).decrypt(b"n" * 12, wire) == b"payload"


# -- the GHASH tables --------------------------------------------------------


def test_table_multiply_matches_bitwise_reference():
    """Shoup tables, and the squared powers grown from them, against SP 800-38D Alg. 1."""
    cipher = AESGCM(b"k" * 16)
    h = int.from_bytes(cipher._h, "big")
    rng = np.random.default_rng(7)
    raw = rng.integers(0, 256, size=(9, 16), dtype=np.uint8)
    power = h
    for table in cipher._power_tables(_CHUNK_LEVELS + 1):
        products = _multiply(raw.view(np.uint64), table).view(np.uint8)
        for element, product in zip(raw, products):
            expected = _gf_mult(int.from_bytes(element.tobytes(), "big"), power)
            assert product.tobytes() == expected.to_bytes(16, "big")
        power = _gf_mult(power, power)


def _tables_digest(tables) -> str:
    return hashlib.sha256(b"".join(table.tobytes() for table in tables)).hexdigest()


# (key, H = E_K(0^128), SHA-256 of all nine power tables H^1 .. H^256 in order):
# the table bytes of the shift-chain-per-power builder, captured before the
# nibble-pass builder replaced it
TABLE_DIGESTS = [
    (
        "00000000000000000000000000000000",
        "66e94bd4ef8a2c3b884cfa59ca342b2e",
        "83198c3d71db16950184025f8d5e5a1c037aecdeb061acf47cd6cb74c43009e3",
    ),
    (
        "feffe9928665731c6d6a8f9467308308",
        "b83b533708bf535d0aa6e52980d53b78",
        "37ae8ec119801ded5c39cb520b98891becbdc7c194eb16474523dcebe22bb63a",
    ),
    (
        "00" * 32,
        "dc95c078a2408989ad48a21492842087",
        "e1e40bef6e6edb2b0d1c71cc047b4c9f4ed9ee5856a57ad136c9a87d0a914611",
    ),
]


@pytest.mark.parametrize("key,h,digest", TABLE_DIGESTS)
def test_power_tables_are_byte_identical_to_the_captured_digest(key, h, digest):
    cipher = AESGCM(bytes.fromhex(key))
    assert cipher._h.hex() == h
    tables = cipher._power_tables(_CHUNK_LEVELS + 1)
    assert len(tables) == _CHUNK_LEVELS + 1
    assert _tables_digest(tables) == digest


def test_power_tables_first_use_from_eight_threads():
    """Eight threads race one fresh cipher's first table build: each sees
    the same complete tuple, equal to a cipher built on one thread."""
    cipher = AESGCM(bytes.fromhex(TABLE_DIGESTS[1][0]))
    workers = 8
    start = threading.Barrier(workers)
    seen, errors = [None] * workers, []

    def work(index):
        try:
            start.wait(timeout=30)
            seen[index] = cipher._power_tables(_CHUNK_LEVELS + 1)
        except BaseException as exc:  # noqa: BLE001 - reported on the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert all(len(tables) == _CHUNK_LEVELS + 1 for tables in seen)
    assert all(tables is seen[0] for tables in seen)  # built once, under the lock
    assert _tables_digest(seen[0]) == TABLE_DIGESTS[1][2]
    assert cipher.table_bytes == GHASH_TABLE_CAP_BYTES


def test_table_memory_is_capped_whatever_the_message_size():
    cipher = AESGCM(b"k" * 16)
    assert cipher.table_bytes == 0  # nothing is built until a message needs it
    cipher.unseal(cipher.seal(b"x" * 64, aad=b"frame"), aad=b"frame")
    small = cipher.table_bytes
    assert 0 < small < GHASH_TABLE_CAP_BYTES
    cipher.unseal(cipher.seal(bytes(1 << 20)))
    assert cipher.table_bytes == GHASH_TABLE_CAP_BYTES == 9 * 64 * 1024
    cipher.unseal(cipher.seal(bytes((1 << 20) + 4096 + 5)))
    cipher.seal(b"x" * 64)
    assert cipher.table_bytes == GHASH_TABLE_CAP_BYTES


def test_session_cache_memory_bound_is_documented():
    doc = " ".join(AESGCM.derive.__doc__.split())
    cap_kib = GHASH_TABLE_CAP_BYTES // 1024
    reservoir_kib = 16 * RESERVOIR_BLOCKS // 1024
    total_mib = SESSION_CACHE_CAPACITY * (cap_kib + reservoir_kib) / 1024
    assert (
        f"{SESSION_CACHE_CAPACITY} x ({cap_kib} + {reservoir_kib}) KiB = {total_mib:g} MiB"
        in doc
    )


# -- one context shared by many threads ----------------------------------------


def test_shared_session_cipher_is_thread_safe():
    """Mixed-size seal/open through one fresh context: its tables grow and
    its keystream reservoir is drawn from and refilled under the race, and
    no nonce is ever sealed twice."""
    session = AESGCM(b"shared-key-16byt")
    sizes = (64, 89, 100, 3072, 4096, 5000, 65536, 64, 89)
    workers, rounds = 8, 9
    errors, nonces = [], []
    start = threading.Barrier(workers)

    def work(seed):
        try:
            rng = np.random.default_rng(seed)
            start.wait(timeout=30)
            for step in range(rounds):
                size = sizes[(seed + step) % len(sizes)]
                payload = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
                aad = b"worker-%d" % seed
                blob = session.seal(payload, aad)
                nonces.append(blob[:NONCE_SIZE])
                assert session.unseal(blob, aad) == payload
                with pytest.raises(InvalidTag):
                    session.unseal(blob, aad + b"!")
        except BaseException as exc:  # noqa: BLE001 - reported on the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(nonces) == workers * rounds == len(set(nonces))
    reservoir_nonces(session)
    # every thread's ciphertext opens under an independently built cipher
    assert session.table_bytes == GHASH_TABLE_CAP_BYTES
    check = AESGCM(b"shared-key-16byt")
    assert check.unseal(session.seal(b"after the race", b"aad"), b"aad") == b"after the race"


# -- one-block messages in Python integers ------------------------------------


def _tree_tag(cipher, nonce, aad, ciphertext):
    """The tag of ``ciphertext`` through the tree GHASH, never the int path."""
    (keystream,) = cipher._keystreams([(nonce + b"\x00\x00\x00\x01", 1)])
    return (cipher._ghash(aad, ciphertext) ^ keystream[0].view(np.uint64)).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    plaintext=st.binary(max_size=16),
    aad=st.binary(max_size=48),
    nonce=st.binary(min_size=12, max_size=12),
)
def test_a_one_block_seal_is_byte_equal_to_the_tree_ghash_tag(plaintext, aad, nonce):
    cipher = AESGCM(RUN_KEY)
    sealed = cipher.encrypt(nonce, plaintext, aad)
    body, tag = sealed[:-TAG_SIZE], sealed[-TAG_SIZE:]
    assert tag == _tree_tag(cipher, nonce, aad, body)
    (keystream,) = cipher.keystream_run(nonce, 0, 1, len(plaintext))
    # frame 0 of a run is sealed under its base nonce
    blob = cipher.seal_with(nonce, keystream, plaintext, aad)
    assert blob == nonce + sealed
    assert cipher.open_with(keystream, blob, aad) == plaintext
    assert cipher.decrypt(nonce, sealed, aad) == plaintext


@pytest.mark.parametrize("key,iv,pt,aad,ct,tag", NIST_CASES[:2])
def test_nist_cases_one_and_two_take_the_integer_path(monkeypatch, key, iv, pt, aad, ct, tag):
    calls = []
    short = AESGCM._short_ghash
    monkeypatch.setattr(
        AESGCM, "_short_ghash", lambda self, a, c: calls.append(len(c)) or short(self, a, c)
    )
    monkeypatch.setattr(AESGCM, "_tag", lambda *args: pytest.fail("took the numpy tag"))
    cipher = AESGCM(bytes.fromhex(key))
    sealed = cipher.encrypt(bytes.fromhex(iv), bytes.fromhex(pt), bytes.fromhex(aad))
    assert sealed == bytes.fromhex(ct + tag)
    assert cipher.decrypt(bytes.fromhex(iv), sealed, bytes.fromhex(aad)) == bytes.fromhex(pt)
    assert calls == [len(pt) // 2] * 2


@pytest.mark.parametrize("where", ["tag", "ciphertext", "aad"])
@pytest.mark.parametrize("length", [0, 1, 9, 16])
def test_a_flipped_bit_in_a_one_block_message_is_refused(where, length):
    cipher = AESGCM(RUN_KEY)
    nonce, aad = bytes(range(12)), b"sesemi-frame-lm"
    (keystream,) = cipher.keystream_run(nonce, 0, 1, length)
    blob = bytearray(cipher.seal_with(nonce, keystream, bytes(range(length)), aad))
    if where == "aad":
        aad = aad[:-1] + bytes([aad[-1] ^ 0x01])
    elif where == "tag" or length == 0:
        blob[-1] ^= 0x80
    else:
        blob[NONCE_SIZE + length - 1] ^= 0x01
    with pytest.raises(InvalidTag):
        cipher.open_with(keystream, bytes(blob), aad)


def test_the_integer_table_is_built_once_under_the_grow_lock():
    """Eight threads race a fresh cipher's first one-block seal: the 512
    ints are read off the H^2 table once, with ``_grow_lock`` held, and
    every thread seals with the same table."""
    cipher = AESGCM(RUN_KEY)
    tables = cipher._power_tables(2)
    reads = []

    class Counted:
        def __getitem__(self, rows):
            if rows is gcm._NIBBLE_ROWS:  # not a GHASH tree multiply
                reads.append(cipher._grow_lock.locked())
            return tables[1][rows]

    cipher._tables = (tables[0], Counted())
    workers = 8
    start = threading.Barrier(workers)
    sealed, errors = [], []
    nonce = bytes(12)
    (keystream,) = cipher.keystream_run(nonce, 0, 1, 9)

    def work():
        try:
            start.wait(timeout=30)
            sealed.append(cipher.seal_with(nonce, keystream, b"9 bytes!!", b"aad"))
        except BaseException as exc:  # noqa: BLE001 - reported on the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert reads == [True]
    assert len(cipher._nibbles) == 512 and len(set(sealed)) == 1
    held = sys.getsizeof(cipher._nibbles) + sum(map(sys.getsizeof, cipher._nibbles))
    assert held <= 32 * 1024  # the bound AESGCM.derive documents
    assert sealed[0] == nonce + AESGCM(RUN_KEY).encrypt(nonce, b"9 bytes!!", b"aad")
