"""AES block cipher: FIPS-197 vectors, batch path, error handling."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import _INV_SBOX, _SBOX, AES, _expand_key
from repro.errors import InvalidKey

# FIPS-197 Appendix C example vectors: (key, plaintext, ciphertext)
FIPS_VECTORS = [
    (
        "000102030405060708090a0b0c0d0e0f",
        "00112233445566778899aabbccddeeff",
        "69c4e0d86a7b0430d8cdb78070b4c55a",
    ),
    (
        "000102030405060708090a0b0c0d0e0f1011121314151617",
        "00112233445566778899aabbccddeeff",
        "dda97ca4864cdfe06eaf70a0ec0d7191",
    ),
    (
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "00112233445566778899aabbccddeeff",
        "8ea2b7ca516745bfeafc49904b496089",
    ),
]


# FIPS-197 Appendix A.1-A.3: the key expansion w[0 ..] of each example key
KEY_EXPANSIONS = [
    (
        "2b7e151628aed2a6abf7158809cf4f3c",
        "2b7e1516 28aed2a6 abf71588 09cf4f3c a0fafe17 88542cb1 23a33939 2a6c7605"
        " f2c295f2 7a96b943 5935807a 7359f67f 3d80477d 4716fe3e 1e237e44 6d7a883b"
        " ef44a541 a8525b7f b671253b db0bad00 d4d1c6f8 7c839d87 caf2b8bc 11f915bc"
        " 6d88a37a 110b3efd dbf98641 ca0093fd 4e54f70e 5f5fc9f3 84a64fb2 4ea6dc4f"
        " ead27321 b58dbad2 312bf560 7f8d292f ac7766f3 19fadc21 28d12941 575c006e"
        " d014f9a8 c9ee2589 e13f0cc8 b6630ca6",
    ),
    (
        "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
        "8e73b0f7 da0e6452 c810f32b 809079e5 62f8ead2 522c6b7b fe0c91f7 2402f5a5"
        " ec12068e 6c827f6b 0e7a95b9 5c56fec2 4db7b4bd 69b54118 85a74796 e92538fd"
        " e75fad44 bb095386 485af057 21efb14f a448f6d9 4d6dce24 aa326360 113b30e6"
        " a25e7ed5 83b1cf9a 27f93943 6a94f767 c0a69407 d19da4e1 ec1786eb 6fa64971"
        " 485f7032 22cb8755 e26d1352 33f0b7b3 40beeb28 2f18a259 6747d26b 458c553e"
        " a7e1466c 9411f1df 821f750a ad07d753 ca400538 8fcc5006 282d166a bc3ce7b5"
        " e98ba06f 448c773c 8ecc7204 01002202",
    ),
    (
        "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
        "603deb10 15ca71be 2b73aef0 857d7781 1f352c07 3b6108d7 2d9810a3 0914dff4"
        " 9ba35411 8e6925af a51a8b5f 2067fcde a8b09c1a 93d194cd be49846e b75d5b9a"
        " d59aecb8 5bf3c917 fee94248 de8ebe96 b5a9328a 2678a647 98312229 2f6c79b3"
        " 812c81ad dadf48ba 24360af2 fab8b464 98c5bfc9 bebd198e 268c3ba7 09e04214"
        " 68007bac b2df3316 96e939e4 6c518d80 c814e204 76a9fb8a 5025c02d 59c58239"
        " de136967 6ccc5a71 fa256395 9674ee15 5886ca5d 2e2f31d7 7e0af1fa 27cf73c3"
        " 749c47ab 18501dda e2757e4f 7401905a cafaaae3 e4d59b34 9adf6ace bd10190d"
        " fe4890d1 e6188d0b 046df344 706c631e",
    ),
]


def test_sbox_is_the_published_table():
    """The S-box comes from log/antilog tables over the generator 3; its
    bytes are pinned to the ones the exponentiation by 254 produced."""
    assert hashlib.sha256(_SBOX).hexdigest() == (
        "c2d8e5eed6cbebd8625fc18f81486a7733c04f9b0129ffbe974c68b90308b4f2"
    )
    assert hashlib.sha256(_INV_SBOX).hexdigest() == (
        "93631b0726f6fe6629daa743ee51b49f4477ed07391b68eeea0672a4a90018aa"
    )
    assert _SBOX[:4] == bytes.fromhex("637c777b") and _SBOX[0x53] == 0xED


@pytest.mark.parametrize("key,words", KEY_EXPANSIONS)
def test_fips_key_expansion_words(key, words):
    expected = [int(word, 16) for word in words.split()]
    assert _expand_key(bytes.fromhex(key)) == expected
    # and those words are the round keys the cipher runs with, byte for byte
    round_keys = AES(bytes.fromhex(key))._round_keys_np
    assert round_keys.tobytes().hex() == words.replace(" ", "")


@pytest.mark.parametrize("key,plaintext,ciphertext", FIPS_VECTORS)
def test_fips_encrypt_vectors(key, plaintext, ciphertext):
    cipher = AES(bytes.fromhex(key))
    assert cipher.encrypt_block(bytes.fromhex(plaintext)).hex() == ciphertext


@pytest.mark.parametrize("key,plaintext,ciphertext", FIPS_VECTORS)
def test_fips_decrypt_vectors(key, plaintext, ciphertext):
    cipher = AES(bytes.fromhex(key))
    assert cipher.decrypt_block(bytes.fromhex(ciphertext)).hex() == plaintext


@pytest.mark.parametrize("size,rounds", [(16, 10), (24, 12), (32, 14)])
def test_round_counts(size, rounds):
    assert AES(b"\x00" * size).rounds == rounds


def test_batch_matches_scalar():
    cipher = AES(b"0123456789abcdef")
    rng = np.random.default_rng(0)
    blocks = rng.integers(0, 256, size=(64, 16), dtype=np.uint8)
    batch = cipher.encrypt_blocks(blocks)
    for i in range(64):
        assert batch[i].tobytes() == cipher.encrypt_block(blocks[i].tobytes())


def test_batch_is_pure():
    cipher = AES(b"0123456789abcdef")
    blocks = np.zeros((4, 16), dtype=np.uint8)
    cipher.encrypt_blocks(blocks)
    assert not blocks.any(), "input blocks must not be mutated"


@pytest.mark.parametrize("bad", [b"", b"short", b"\x00" * 15, b"\x00" * 33])
def test_invalid_key_sizes_rejected(bad):
    with pytest.raises(InvalidKey):
        AES(bad)


def test_non_bytes_key_rejected():
    with pytest.raises(InvalidKey):
        AES("0123456789abcdef")  # type: ignore[arg-type]


def test_wrong_block_size_rejected():
    cipher = AES(b"\x00" * 16)
    with pytest.raises(ValueError):
        cipher.encrypt_block(b"short")
    with pytest.raises(ValueError):
        cipher.decrypt_block(b"x" * 17)


def test_bad_batch_shape_rejected():
    cipher = AES(b"\x00" * 16)
    with pytest.raises(ValueError):
        cipher.encrypt_blocks(np.zeros((4, 8), dtype=np.uint8))


@settings(max_examples=25, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    block=st.binary(min_size=16, max_size=16),
)
def test_roundtrip_property(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@settings(max_examples=10, deadline=None)
@given(key=st.binary(min_size=32, max_size=32), block=st.binary(min_size=16, max_size=16))
def test_roundtrip_property_aes256(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


def test_encryption_not_identity():
    cipher = AES(b"\x00" * 16)
    block = b"\x00" * 16
    assert cipher.encrypt_block(block) != block


def test_different_keys_differ():
    block = b"A" * 16
    assert AES(b"k" * 16).encrypt_block(block) != AES(b"j" * 16).encrypt_block(block)
