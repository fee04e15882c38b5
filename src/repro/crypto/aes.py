"""AES block cipher (FIPS 197) implemented from scratch.

Encryption is one numpy-vectorised path, :meth:`AES.encrypt_blocks`, over an
``(n, 16)`` batch of blocks; :meth:`AES.encrypt_block` is that path with
``n = 1``.  Each middle round is the classic T-table formulation: SubBytes,
ShiftRows and MixColumns fused into one gather from four 256-entry ``uint32``
tables plus an XOR fold, four numpy calls a round whatever the batch size.
That is what makes CTR-mode bulk encryption of model files, and the
fixed cost of a 64-byte stream frame, practical in pure Python.
:meth:`AES.decrypt_block` (single block, used for cross-checking only; GCM
never decrypts a block) keeps the textbook byte-wise inverse rounds.

Supported key sizes are 128, 192, and 256 bits.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import InvalidKey

_BLOCK_SIZE = 16

# ---------------------------------------------------------------------------
# S-box construction.  Rather than hard-coding the 256-entry table we derive
# it from the field inverse + affine map, which doubles as a self-check.
# ---------------------------------------------------------------------------


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) with the AES polynomial 0x11b."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return result


def _build_sbox() -> tuple[bytes, bytes]:
    # Field inverses from log/antilog tables over the generator 3: with
    # x = 3^l, x^-1 = 3^(255 - l), one table walk instead of an
    # exponentiation per element.
    antilog = [0] * 255
    log = [0] * 256
    x = 1
    for power in range(255):
        antilog[power] = x
        log[x] = power
        x = _gf_mul(x, 3)
    inverse = [0] + [antilog[-log[x] % 255] for x in range(1, 256)]
    sbox = [0] * 256
    for x in range(256):
        # Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
        b = inverse[x]
        value = b
        for shift in (1, 2, 3, 4):
            value ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        value ^= 0x63
        sbox[x] = value
    inv_sbox = [0] * 256
    for x, s in enumerate(sbox):
        inv_sbox[s] = x
    return bytes(sbox), bytes(inv_sbox)


_SBOX, _INV_SBOX = _build_sbox()

_SBOX_NP = np.frombuffer(_SBOX, dtype=np.uint8)
_INV_SBOX_NP = np.frombuffer(_INV_SBOX, dtype=np.uint8)

# GF(2^8) multiply-by-constant tables used by (Inv)MixColumns.
_MUL_TABLES = {
    c: np.array([_gf_mul(x, c) for x in range(256)], dtype=np.uint8)
    for c in (2, 3, 9, 11, 13, 14)
}

# ShiftRows permutation on the 16-byte block laid out column-major
# (byte i of the block is state[row=i%4][col=i//4], as in FIPS 197).
_SHIFT_ROWS = np.array(
    [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11], dtype=np.intp
)
_INV_SHIFT_ROWS = np.argsort(_SHIFT_ROWS)

_WORD = np.dtype("<u4")  # one state column; byte r of the word is row r


def _build_round_tables() -> np.ndarray:
    """The eight 256-entry round tables, concatenated: entry ``256 * t + x``.

    A state column is one little-endian ``uint32`` (byte ``r`` of the word is
    row ``r``).  Tables 0-3 are the T-tables: ``T_r[x]`` is the MixColumns
    column that ``SubBytes(x)`` sitting in row ``r`` contributes, so a middle
    round's output column is ``T_0[a0] ^ T_1[a1] ^ T_2[a2] ^ T_3[a3]`` with
    ``a_r`` the ShiftRows-selected input bytes.  Tables 4-7 are the last
    round's (no MixColumns): ``SubBytes(x)`` placed in byte ``r``.
    """
    s = _SBOX_NP.astype(np.uint32)
    s2 = _MUL_TABLES[2][_SBOX_NP].astype(np.uint32)
    s3 = _MUL_TABLES[3][_SBOX_NP].astype(np.uint32)
    zero = np.zeros(256, dtype=np.uint32)
    rows = [
        (s2, s, s, s3), (s3, s2, s, s), (s, s3, s2, s), (s, s, s3, s2),
        (s, zero, zero, zero), (zero, s, zero, zero), (zero, zero, s, zero), (zero, zero, zero, s),
    ]
    return np.concatenate(
        [b0 | (b1 << 8) | (b2 << 16) | (b3 << 24) for b0, b1, b2, b3 in rows]
    ).astype(_WORD)


_ROUND_TABLES = _build_round_tables()
# index offsets selecting table r (middle rounds) / 4 + r (last round) per state row
_MIDDLE_ROUND = (np.arange(4, dtype=np.intp) * 256).reshape(4, 1, 1)
_LAST_ROUND = _MIDDLE_ROUND + 1024
# Blocks per pass: bounds the scratch arrays (~200 bytes per block) however
# large the batch, and keeps them inside the L2 cache.
_TILE = 4096

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8]


def _expand_key(key: bytes) -> list[int]:
    """The FIPS 197 key schedule ``w[0 .. 4 * (rounds + 1) - 1]`` of ``key``.

    Each word is a big-endian 32-bit integer, as FIPS 197 Appendix A lists
    them; round key ``r`` is words ``4r .. 4r + 3``.
    """
    nk = len(key) // 4
    rounds = {4: 10, 6: 12, 8: 14}[nk]
    words = list(struct.unpack(f">{nk}I", key))
    s = _SBOX
    for i in range(nk, 4 * (rounds + 1)):
        t = words[i - 1]
        if i % nk == 0:  # SubWord(RotWord(t)) ^ Rcon
            t = (
                (s[t >> 16 & 0xFF] ^ _RCON[i // nk - 1]) << 24
                | s[t >> 8 & 0xFF] << 16 | s[t & 0xFF] << 8 | s[t >> 24]
            )
        elif nk > 6 and i % nk == 4:  # SubWord(t)
            t = s[t >> 24] << 24 | s[t >> 16 & 0xFF] << 16 | s[t >> 8 & 0xFF] << 8 | s[t & 0xFF]
        words.append(words[i - nk] ^ t)
    return words


class AES:
    """AES block cipher for a fixed key.

    Parameters
    ----------
    key:
        16, 24, or 32 bytes of key material.
    """

    def __init__(self, key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)):
            raise InvalidKey("AES key must be bytes")
        if len(key) not in (16, 24, 32):
            raise InvalidKey(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self._round_keys_np = (
            np.array(_expand_key(bytes(key)), dtype=">u4").view(np.uint8).reshape(-1, _BLOCK_SIZE)
        )
        # round keys as column words, shaped to broadcast over (.., 4, n) states
        self._round_key_words = self._round_keys_np.view(_WORD).reshape(-1, 4, 1)
        self.key_size = len(key)

    @property
    def rounds(self) -> int:
        """Number of AES rounds for this key size (10, 12, or 14)."""
        return len(self._round_keys_np) - 1

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt a single 16-byte block."""
        if len(block) != _BLOCK_SIZE:
            raise ValueError("AES block must be 16 bytes")
        out = self.encrypt_blocks(
            np.frombuffer(block, dtype=np.uint8).reshape(1, _BLOCK_SIZE)
        )
        return out.tobytes()

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt a single 16-byte block."""
        if len(block) != _BLOCK_SIZE:
            raise ValueError("AES block must be 16 bytes")
        state = np.frombuffer(block, dtype=np.uint8).reshape(1, _BLOCK_SIZE).copy()
        state ^= self._round_keys_np[-1]
        for rnd in range(self.rounds - 1, 0, -1):
            state = state[:, _INV_SHIFT_ROWS]
            state = _INV_SBOX_NP[state]
            state ^= self._round_keys_np[rnd]
            state = _inv_mix_columns(state)
        state = state[:, _INV_SHIFT_ROWS]
        state = _INV_SBOX_NP[state]
        state ^= self._round_keys_np[0]
        return state.tobytes()

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt an ``(n, 16)`` uint8 array of blocks in one batch."""
        if blocks.ndim != 2 or blocks.shape[1] != _BLOCK_SIZE:
            raise ValueError("blocks must have shape (n, 16)")
        words = np.ascontiguousarray(blocks, dtype=np.uint8).view(_WORD)
        out = np.empty_like(words)
        for start in range(0, len(words), _TILE):
            self._encrypt_tile(words[start : start + _TILE], out[start : start + _TILE])
        return out.view(np.uint8)

    def _encrypt_tile(self, words: np.ndarray, out: np.ndarray) -> None:
        """All rounds over ``(n, 4)`` column words, written to ``out``.

        The state lives transposed and doubled, ``state[d, c, i]`` = column
        ``c`` of block ``i`` for both ``d``, so that ShiftRows is a strided
        *view*: byte ``r`` of column ``c + r`` sits ``r * (4n + 1) + c * 4n``
        bytes in, and the doubling is what lets ``c + r`` run past 3 without a
        modulo.  A round is then: widen those bytes to table indices, gather,
        XOR-fold the four rows, add the round key (writing both copies).
        Every step runs along the contiguous block axis.
        """
        n = len(words)
        round_keys = self._round_key_words
        state = np.empty((2, 4, n), dtype=_WORD)
        shifted = np.ndarray(
            (4, 4, n), dtype=np.uint8, buffer=state, strides=(4 * n + 1, 4 * n, 4)
        )
        index = np.empty((4, 4, n), dtype=np.intp)
        gathered = np.empty((4, 4, n), dtype=_WORD)
        column = np.empty((4, n), dtype=_WORD)
        # every index is < 2048 by construction; "wrap" only skips the bounds pass
        lookup = _ROUND_TABLES.take
        np.bitwise_xor(words.T, round_keys[0], out=state)
        for rnd in range(1, self.rounds):
            np.add(shifted, _MIDDLE_ROUND, out=index)
            lookup(index, out=gathered, mode="wrap")
            np.bitwise_xor.reduce(gathered, axis=0, out=column)
            np.bitwise_xor(column, round_keys[rnd], out=state)
        np.add(shifted, _LAST_ROUND, out=index)
        lookup(index, out=gathered, mode="wrap")
        np.bitwise_xor.reduce(gathered, axis=0, out=column)
        np.bitwise_xor(column, round_keys[-1], out=out.T)


def _inv_mix_columns(state: np.ndarray) -> np.ndarray:
    """Apply InvMixColumns to an (n, 16) state batch."""
    s = state.reshape(-1, 4, 4)
    a0, a1, a2, a3 = s[:, :, 0], s[:, :, 1], s[:, :, 2], s[:, :, 3]
    m9, m11, m13, m14 = (
        _MUL_TABLES[9],
        _MUL_TABLES[11],
        _MUL_TABLES[13],
        _MUL_TABLES[14],
    )
    out = np.empty_like(s)
    out[:, :, 0] = m14[a0] ^ m11[a1] ^ m13[a2] ^ m9[a3]
    out[:, :, 1] = m9[a0] ^ m14[a1] ^ m11[a2] ^ m13[a3]
    out[:, :, 2] = m13[a0] ^ m9[a1] ^ m14[a2] ^ m11[a3]
    out[:, :, 3] = m11[a0] ^ m13[a1] ^ m9[a2] ^ m14[a3]
    return out.reshape(-1, 16)
