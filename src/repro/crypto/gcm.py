"""AES-GCM authenticated encryption (NIST SP 800-38D) from scratch.

Both halves of a call are a fixed number of numpy steps.  The CTR keystream
and ``E_K(J0)`` (the tag mask) come out of *one* batch through the T-table AES
path: ``J0`` rides as block 0 of the counter blocks, and a warm random-nonce
seal runs no batch of its own, its nonce and keystream having been pre-drawn
inside an earlier one (see :class:`AESGCM`).  GHASH is evaluated as a
polynomial in ``H`` by a log-depth tree instead of block by block: aad,
ciphertext and the length block are laid out as one ``(m, 16)`` array and
folded pairwise, level ``l`` multiplying every left element by ``H^(2^l)`` in
one vectorised gather from that power's Shoup 8-bit table (``log2 m`` steps of
four numpy calls, not ``m`` x 16 lookups).  The tree is capped at chunks of
256 blocks; longer inputs run it across all their chunks at once and fold the
chunk digests with ``H^256``, so a cipher never holds more than
:data:`GHASH_TABLE_CAP_BYTES` of tables whatever it is asked to seal.

Building a table is set-up a cold start pays for every fresh key, so it is
a handful of numpy calls too: a power's 128 single-bit rows ``p * x^i``
become the 4,096-entry table in one pass over per-byte nibble tables, and
the next power's rows are those rows times the table itself
(``p^2 * x^i = (p * x^i) * p``), one vectorised multiply; only ``H``'s
rows come from a shift-and-reduce chain.  Correctness is pinned by the
NIST GCM test vectors, by known-answer vectors captured from the previous
(block-serial) implementation, and by digests of the table bytes.

A message of at most one block -- a stream's 9-byte frame -- skips numpy
altogether: its CTR XOR and its tag are Python integers, the tag being a
memoised ``(aad, length)`` GHASH prefix, XOR ``E_K(J0)``, XOR ``C * H^2``
from a 4-bit Shoup table of 512 integers (32 nibble positions x 16
values).  That table is read off the ``H^2`` table in one pass, once per
cipher and only after its first one-block message: at most 32 KiB of
integers beside the numpy tables.  It is indexed by ciphertext nibbles,
which the wire carries in the clear anyway.
"""

from __future__ import annotations

import hmac
import struct
import threading
from collections import OrderedDict, deque

import numpy as np

from repro.crypto.aes import AES
from repro.crypto.keys import SymmetricKey, random_bytes
from repro.errors import InvalidKey, InvalidTag

_R = 0xE1000000000000000000000000000000
NONCE_SIZE = 12
TAG_SIZE = 16

_CHUNK_LEVELS = 8  # the GHASH tree spans chunks of 2^8 = 256 blocks (4 KiB)
_CHUNK_BLOCKS = 1 << _CHUNK_LEVELS
# Blocks folded per pass over a long input: bounds the tree's scratch arrays
# (~200 bytes per block) however large the message.
_GHASH_TILE = 16 * _CHUNK_BLOCKS
_TABLE_BYTES = 16 * 256 * 16
#: Most GHASH table memory one cipher can ever hold: the tables for
#: ``H^1, H^2, ..., H^128`` (the tree levels) and ``H^256`` (the chunk fold),
#: 64 KiB each.  Tables are built on first need, so a cipher that only ever
#: sees short messages holds fewer.
GHASH_TABLE_CAP_BYTES = (_CHUNK_LEVELS + 1) * _TABLE_BYTES
#: Most pre-drawn keystream one cipher holds for its random-nonce seals, in
#: 16-byte blocks: 4 KiB, one GHASH chunk.  A message whose keystream (tag
#: mask included) is longer never touches the reservoir.
RESERVOIR_BLOCKS = 256
# spare slots one seal miss adds: 1 on a cipher's first miss, doubling per miss
_MAX_SPARES = 32
# (aad, length) GHASH prefixes one cipher memoises for one-block messages
_MAX_PREFIXES = 8
_FIRST_COUNTER = b"\x00\x00\x00\x01"  # J0 = nonce || 1 for a 96-bit nonce

_LANE = np.dtype("V16")  # one 128-bit field element, moved as an opaque unit
# table row of byte value b at block position j is 256 * j + b
_POSITION = (np.arange(16, dtype=np.intp) * 256).reshape(16, 1)
# the table rows holding power * x^i, i = 8j + t: byte j set to bit 7 - t
_BIT_ROWS = (_POSITION + (0x80 >> np.arange(8, dtype=np.intp))).reshape(128)
# the rows of a Shoup 8-bit table that make its 4-bit one, 32 per byte
# position j: (hi << 4 at byte j) * power for hi = 0..15, then (lo at byte j)
_NIBBLES = np.arange(16, dtype=np.intp)
_NIBBLE_ROWS = (_POSITION + np.concatenate([_NIBBLES << 4, _NIBBLES])).reshape(512)


def _gf_mult(x: int, y: int) -> int:
    """Bitwise GF(2^128) multiplication per the GCM specification."""
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def _chain_rows(power: bytes) -> np.ndarray:
    """The 128 rows ``power * x^i`` of ``power``, by a shift-and-reduce chain."""
    shifted = []
    v = int.from_bytes(power, "big")
    for _ in range(128):
        shifted.append(v.to_bytes(16, "big"))
        v = (v >> 1) ^ _R if v & 1 else v >> 1
    return np.frombuffer(b"".join(shifted), dtype=np.uint64).reshape(128, 2)


def _shoup_table(rows: np.ndarray) -> np.ndarray:
    """Shoup 8-bit table for the power whose rows ``power * x^i`` are ``rows``.

    Row ``256 * j + b`` is ``(b at byte j of an otherwise zero block) * power``,
    and bit ``k`` of byte ``j`` carries ``x^(8j + 7 - k)``, so by linearity a
    row is the XOR of the single-bit rows its set bits select.  All 32
    16-entry nibble tables (high and low nibble of each byte position) are
    filled at once by four doublings (entries ``2^k .. 2^(k+1) - 1`` are
    entries ``0 .. 2^k - 1`` plus bit ``k``'s row); then row ``16 * hi + lo``
    is ``high[hi] ^ low[lo]``, one broadcast XOR per 64-bit word plane, so
    no XOR runs along the two-word axis.
    """
    # bits[s, w, j, n]: word w of x^(8j + 4n + s) * power, n = 0 the high
    # nibble; in either nibble bit k carries x^(8j + 4n + 3 - k), so s = 3 - k
    bits = rows.reshape(16, 2, 4, 2).transpose(2, 3, 0, 1)
    nibbles = np.zeros((16, 2, 16, 2), dtype=np.uint64)  # [entry, w, j, n]
    for k in range(4):
        half = 1 << k
        np.bitwise_xor(nibbles[:half], bits[3 - k], out=nibbles[half : 2 * half])
    planes = nibbles.transpose(1, 2, 3, 0)  # [w, j, n, entry]
    table = np.empty((16, 16, 16, 2), dtype=np.uint64)  # [j, hi, lo, w]
    for word in range(2):
        np.bitwise_xor(
            planes[word, :, 0, :, None], planes[word, :, 1, None, :], out=table[..., word]
        )
    return table.view(_LANE).reshape(16 * 256)


def _multiply(elements: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Multiply each row of ``elements`` (``(k, 2)`` uint64) by ``table``'s constant.

    One lookup per byte position, gathered position-major so the XOR fold
    over the sixteen partial products runs along the contiguous element axis.
    """
    index = np.add(elements.view(np.uint8).T, _POSITION, order="C")
    partial = table[index].view(np.uint64)
    return np.bitwise_xor.reduce(partial, axis=0).reshape(-1, 2)


def _key_material(key) -> bytes:
    """The raw bytes of ``key``; anything but bytes-like / ``SymmetricKey`` is refused.

    ``bytes(16)`` is sixteen zero bytes, so converting blindly would turn a
    stray integer into a working cipher under the all-zero key.
    """
    if isinstance(key, SymmetricKey):
        return key.material
    if isinstance(key, (bytes, bytearray, memoryview)):
        return bytes(key)
    raise InvalidKey(
        f"AES-GCM key must be bytes-like or a SymmetricKey, not {type(key).__name__}"
    )


class AESGCM:
    """AES-GCM AEAD for a fixed key.

    Parameters
    ----------
    key:
        16, 24, or 32 bytes of AES key material (or a
        :class:`~repro.crypto.keys.SymmetricKey`).

    Constructing an ``AESGCM`` runs the AES key-schedule expansion and
    derives ``H``.  The GHASH tables (64 KiB per power of ``H``, at most
    :data:`GHASH_TABLE_CAP_BYTES`, each grown from the one before) are
    built the first time a message is long enough to need them and then
    kept, so on the hot path prefer :meth:`AESGCM.derive`: it returns a
    cached cipher for the key, and repeat requests under the same key
    skip the rebuild; per-call construction is deprecated there
    (cold-path and one-shot uses are fine).

    The random-nonce :meth:`seal` takes its nonce and keystream from a
    reservoir of pre-drawn slots, at most :data:`RESERVOIR_BLOCKS` blocks
    (4 KiB), filled inside AES batches the cipher runs anyway: an
    :meth:`unseal` finding the reservoir empty adds one slot the length of
    the last seal to its own batch, and a seal finding no slot long enough
    computes spare slots beside its own keystream (1, 2, 4 ... 32 per
    miss).  So a warm request/reply exchange runs one AES batch per party.
    Each slot's nonce is a fresh :func:`random_bytes` draw made when the
    slot is filled; a slot is taken out under a lock before use and never
    put back, and one shorter than the message is dropped.  A message
    whose keystream exceeds the cap never touches the reservoir.  The
    keystream is key-equivalent state: it lives only in this object and
    goes with it.  The explicit-nonce :meth:`encrypt` / :meth:`decrypt`
    share the same AEAD body and always compute their own keystream.

    A stream's frames are sealed from keystream runs instead
    (:meth:`keystream_run`, :meth:`seal_with`, :meth:`open_with`), and a
    message of at most one block -- a 9-byte frame -- is sealed and opened
    in Python integers: a memoised per-``(aad, length)`` GHASH prefix plus
    one 4-bit table multiply, no numpy call past reading its keystream.
    """

    def __init__(self, key) -> None:
        self._aes = AES(_key_material(key))
        self._h = self._aes.encrypt_block(b"\x00" * 16)
        # _tables[l] multiplies by H^(2^l).  Only ever replaced by a longer
        # tuple, under _grow_lock; readers take whichever tuple they see.
        self._tables: tuple[np.ndarray, ...] = ()
        self._grow_lock = threading.Lock()
        # pre-drawn (nonce, keystream) slots for seal(), each taken out
        # under the lock before use and never put back
        self._reservoir: deque[tuple[bytes, np.ndarray]] = deque()
        self._reservoir_blocks = 0
        self._reservoir_lock = threading.Lock()
        self._spares = 1  # slots the next seal miss adds
        self._last_seal = 0  # keystream blocks of the last seal (0: none yet)
        # (aad, length) -> GHASH(aad, 0^length) as an int, see _short_ghash
        self._prefixes: dict[tuple[bytes, int], int] = {}
        # (nibble at position k) * H^2 at 16 * k + nibble, see _h2_nibbles
        self._nibbles: list[int] | None = None

    @property
    def table_bytes(self) -> int:
        """GHASH table memory this cipher holds now (at most the cap)."""
        return sum(table.nbytes for table in self._tables)

    def _power_tables(self, count: int) -> tuple[np.ndarray, ...]:
        """Tables for ``H^(2^0) .. H^(2^(count-1))``, built on first need."""
        tables = self._tables
        if len(tables) >= count:
            return tables
        with self._grow_lock:
            tables = self._tables
            while len(tables) < count:
                if tables:
                    # p^2 * x^i = (p * x^i) * p: the last table's own
                    # single-bit rows, multiplied by that table
                    top = tables[-1]
                    rows = _multiply(top[_BIT_ROWS].view(np.uint64).reshape(128, 2), top)
                else:
                    rows = _chain_rows(self._h)
                tables += (_shoup_table(rows),)
            self._tables = tables
        return tables

    # -- GHASH -----------------------------------------------------------------

    def _ghash(self, aad: bytes, ciphertext: bytes) -> np.ndarray:
        """``GHASH_H(aad, ciphertext)`` as a ``(1, 2)`` uint64 array.

        ``GHASH = X_1 H^m ^ ... ^ X_m H``: append a zero block so the last
        real block meets ``H^1`` and the whole sum is one polynomial whose
        final coefficient meets ``H^0``; pad with zero blocks *in front* (they
        add nothing) up to a power of two, or past 256 blocks a whole number
        of chunks; then ``(a, b) -> a * H^(2^l) ^ b`` over neighbours halves
        the array per level, and the chunk digests left over fold by Horner.
        """
        blocks = -(-len(aad) // 16) - (-len(ciphertext) // 16) + 2
        levels = min((blocks - 1).bit_length(), _CHUNK_LEVELS)
        chunk = 1 << levels
        padded = -(-blocks // chunk) * chunk
        # a second chunk is what brings in the fold table, H^256
        tables = self._power_tables(levels + (padded > chunk))
        laid_out = b"".join((
            bytes(16 * (padded - blocks)),
            aad, bytes(-len(aad) % 16),
            ciphertext, bytes(-len(ciphertext) % 16),
            struct.pack(">QQ", 8 * len(aad), 8 * len(ciphertext)),
            bytes(16),
        ))
        elements = np.frombuffer(laid_out, dtype=np.uint64).reshape(padded, 2)
        digest = None
        for start in range(0, padded, _GHASH_TILE):
            level = elements[start : start + _GHASH_TILE]
            for table in tables[:levels]:
                folded = _multiply(level[0::2], table)
                folded ^= level[1::2]
                level = folded
            for chunk in range(len(level)):
                chunk_digest = level[chunk : chunk + 1]
                digest = (
                    chunk_digest if digest is None
                    else _multiply(digest, tables[_CHUNK_LEVELS]) ^ chunk_digest
                )
        return digest

    # -- keystream -------------------------------------------------------------

    def _j0(self, nonce: bytes) -> bytes:
        if len(nonce) == NONCE_SIZE:
            return nonce + _FIRST_COUNTER
        return self._ghash(b"", nonce).tobytes()

    def _keystreams(
        self, runs: list[tuple[bytes, int]], frames: tuple | None = None
    ) -> list[np.ndarray]:
        """``E_K(J0), E_K(J0 + 1), ...`` for each ``(J0, blocks)`` of ``runs``.

        One AES batch for all of them; run ``i`` comes back as a
        ``(blocks_i, 16)`` array whose row 0 masks the tag and rows 1.. are
        the CTR keystream.  ``frames = (nonce, first, count, blocks)``
        appends one stream run to the same batch, built without a loop per
        frame: ``blocks`` rows for each nonce :func:`frame_nonce`
        ``(nonce, i)``, ``first <= i < first + count``, returned last as a
        ``(count, blocks, 16)`` array.
        """
        extra = 0 if frames is None else frames[2] * frames[3]
        blocks = np.empty((sum([count for _, count in runs]) + extra, 4), dtype=">u4")
        bounds = []
        stop = 0
        for j0, count in runs:
            start, stop = stop, stop + count
            first = int.from_bytes(j0[12:], "big")
            blocks[start:stop, :3] = np.frombuffer(j0, dtype=">u4", count=3)
            # the narrowing store keeps the low 32 bits: the counter wraps mod 2^32
            blocks[start:stop, 3] = np.arange(first, first + count, dtype=np.uint64)
            bounds.append((start, stop))
        if frames is not None:
            nonce, first, count, per_frame = frames
            counters = blocks[stop:].reshape(count, per_frame, 4)
            counters[..., :2] = np.frombuffer(nonce, dtype=">u4", count=2)
            low = np.arange(first, first + count, dtype=np.uint32)
            low ^= np.uint32(int.from_bytes(nonce[8:], "big"))
            counters[..., 2] = low[:, None]
            counters[..., 3] = np.arange(1, per_frame + 1, dtype=np.uint32)
        out = self._aes.encrypt_blocks(blocks.view(np.uint8))
        keystreams = [out[start:stop] for start, stop in bounds]
        if frames is not None:
            run = out[stop:].reshape(count, per_frame, 16)
            # copied out of a shared batch, so the run holds nothing else
            keystreams.append(run.copy() if stop else run)
        return keystreams

    def _draw(self, blocks: int) -> tuple[bytes, np.ndarray]:
        """A fresh nonce and at least ``blocks`` rows of its keystream.

        A reservoir slot if one is long enough (shorter ones in front are
        dropped); otherwise one batch computing this message's keystream
        plus spare slots of the same length, their count doubling per
        miss up to :data:`_MAX_SPARES`.
        """
        self._last_seal = blocks
        spares = 0
        if blocks <= RESERVOIR_BLOCKS:
            with self._reservoir_lock:
                while self._reservoir:
                    nonce, keystream = self._reservoir.popleft()
                    self._reservoir_blocks -= len(keystream)
                    if len(keystream) >= blocks:
                        return nonce, keystream
                spares = min(self._spares, RESERVOIR_BLOCKS // blocks)
                self._spares = min(2 * self._spares, _MAX_SPARES)
        nonces = [random_bytes(NONCE_SIZE) for _ in range(1 + spares)]
        keystreams = self._keystreams([(nonce + _FIRST_COUNTER, blocks) for nonce in nonces])
        self._stock(zip(nonces[1:], keystreams[1:]))
        return nonces[0], keystreams[0]

    def _stock(self, slots) -> None:
        """Queue ``(nonce, keystream)`` slots, each copied out of its batch,
        while the reservoir stays within :data:`RESERVOIR_BLOCKS`."""
        with self._reservoir_lock:
            for nonce, keystream in slots:
                if self._reservoir_blocks + len(keystream) > RESERVOIR_BLOCKS:
                    return
                self._reservoir.append((nonce, keystream.copy()))
                self._reservoir_blocks += len(keystream)

    # -- public AEAD API -----------------------------------------------------

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt ``plaintext``; returns ``ciphertext || 16-byte tag``."""
        (keystream,) = self._keystreams([(self._j0(nonce), _blocks(len(plaintext)))])
        return self._encrypt(keystream, plaintext, aad)

    def decrypt(self, nonce: bytes, ciphertext: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt ``ciphertext || tag``; raises :class:`InvalidTag`."""
        if len(ciphertext) < TAG_SIZE:
            raise InvalidTag("ciphertext shorter than the authentication tag")
        (keystream,) = self._keystreams(
            [(self._j0(nonce), _blocks(len(ciphertext) - TAG_SIZE))]
        )
        return self._decrypt(keystream, ciphertext, aad)

    def _encrypt(self, keystream: np.ndarray, plaintext: bytes, aad: bytes) -> bytes:
        if len(plaintext) <= 16:
            mask, ciphertext = _one_block(plaintext, keystream)
            return ciphertext + (mask ^ self._short_ghash(aad, ciphertext)).to_bytes(16, "big")
        ciphertext = _xor_stream(plaintext, keystream)
        return ciphertext + self._tag(keystream, aad, ciphertext)

    def _decrypt(self, keystream: np.ndarray, ciphertext: bytes, aad: bytes) -> bytes:
        body, tag = ciphertext[:-TAG_SIZE], ciphertext[-TAG_SIZE:]
        if len(body) <= 16:
            mask, plaintext = _one_block(body, keystream)
            want = (mask ^ self._short_ghash(aad, body)).to_bytes(16, "big")
        else:
            plaintext, want = None, self._tag(keystream, aad, body)
        if not hmac.compare_digest(tag, want):
            raise InvalidTag("AES-GCM tag mismatch")
        return _xor_stream(body, keystream) if plaintext is None else plaintext

    def _tag(self, keystream: np.ndarray, aad: bytes, ciphertext: bytes) -> bytes:
        tag = self._ghash(aad, ciphertext)
        tag ^= keystream[0].view(np.uint64)
        return tag.tobytes()

    def _short_ghash(self, aad: bytes, ciphertext: bytes) -> int:
        """:meth:`_ghash` of a ciphertext of at most one block, as an int.

        GHASH is linear in its blocks, and a lone ciphertext block meets
        ``H^2`` whatever the aad, so the digest is ``GHASH(aad, 0^len) ^
        C * H^2``.  The first term depends only on ``(aad, len)``, which a
        stream's frames share; it is memoised (at most
        :data:`_MAX_PREFIXES` entries).  The second is one lookup per
        nibble of ``C`` in :meth:`_h2_nibbles`, XORed together.
        """
        key = (aad, len(ciphertext))
        prefix = self._prefixes.get(key)
        if prefix is None:
            prefix = int.from_bytes(self._ghash(aad, bytes(len(ciphertext))).tobytes(), "big")
            if len(self._prefixes) >= _MAX_PREFIXES:
                self._prefixes.clear()
            self._prefixes[key] = prefix
        if ciphertext:
            nibbles = self._nibbles or self._h2_nibbles()
            row = 0
            for byte in ciphertext:
                prefix ^= nibbles[row + (byte >> 4)] ^ nibbles[row + 16 + (byte & 15)]
                row += 32
        return prefix

    def _h2_nibbles(self) -> list[int]:
        """The 4-bit Shoup table of ``H^2`` as 512 ints, built once per cipher.

        Entry ``32 * j + hi`` is ``(hi << 4 at byte j) * H^2`` and entry
        ``32 * j + 16 + lo`` is ``(lo at byte j) * H^2``: rows of the
        8-bit ``H^2`` table, read out in one gather.
        """
        square = self._power_tables(2)[1]
        with self._grow_lock:
            if self._nibbles is None:
                rows = square[_NIBBLE_ROWS].tobytes()
                self._nibbles = [
                    int.from_bytes(rows[at : at + 16], "big") for at in range(0, len(rows), 16)
                ]
            return self._nibbles

    # -- sealed-blob convenience ----------------------------------------------

    def seal(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt with a fresh random nonce; returns ``nonce || ct || tag``.

        Nonce and keystream come from the reservoir when it holds a slot
        long enough, so a warm seal runs no AES batch of its own.
        """
        nonce, keystream = self._draw(_blocks(len(plaintext)))
        return nonce + self._encrypt(keystream, plaintext, aad)

    def unseal(self, blob: bytes, aad: bytes = b"") -> bytes:
        """Inverse of :meth:`seal`; raises :class:`InvalidTag`.

        When the reservoir is empty and this cipher has sealed a message
        that fits it, the unseal's batch also fills one slot the length of
        that last seal.
        """
        return self._unseal(blob, aad, None)[0]

    def unseal_drawing(
        self, blob: bytes, aad: bytes, nonce: bytes, count: int, length: int
    ) -> tuple[bytes, np.ndarray]:
        """:meth:`unseal`, plus ``keystream_run(nonce, 0, count, length)``
        drawn inside the same AES batch."""
        return self._unseal(blob, aad, (nonce, 0, count, _blocks(length)))

    def _unseal(self, blob: bytes, aad: bytes, frames) -> tuple[bytes, np.ndarray | None]:
        if len(blob) < NONCE_SIZE + TAG_SIZE:
            raise InvalidTag("sealed blob too short")
        ciphertext = blob[NONCE_SIZE:]
        runs = [(blob[:NONCE_SIZE] + _FIRST_COUNTER, _blocks(len(ciphertext) - TAG_SIZE))]
        keystreams = self._refilling(runs, frames)
        run = keystreams[-1] if frames is not None else None
        return self._decrypt(keystreams[0], ciphertext, aad), run

    def _refilling(self, runs: list[tuple[bytes, int]], frames) -> list[np.ndarray]:
        """:meth:`_keystreams`, plus one reservoir slot the length of this
        cipher's last seal when the reservoir is empty and that seal fits it."""
        last = self._last_seal
        if 0 < last <= RESERVOIR_BLOCKS and not self._reservoir:
            refill = random_bytes(NONCE_SIZE)
            keystreams = self._keystreams(runs + [(refill + _FIRST_COUNTER, last)], frames)
            self._stock([(refill, keystreams[len(runs)])])
            return keystreams
        return self._keystreams(runs, frames)

    # -- stream runs -------------------------------------------------------------

    def keystream_run(self, nonce: bytes, first: int, count: int, length: int) -> np.ndarray:
        """The keystreams of ``count`` consecutive frames of one stream, one AES batch.

        Frame ``i`` of a stream with base nonce ``nonce`` is sealed under
        :func:`frame_nonce` ``(nonce, i)``.  Row ``i - first`` of the
        returned ``(count, blocks, 16)`` array is that nonce's keystream
        (tag mask, then CTR) for a ``length``-byte message, byte-equal to
        the one :meth:`encrypt` computes for it.  Like a reservoir slot it
        is key-equivalent state, and each row may seal exactly one message.
        The batch refills an empty reservoir the way :meth:`unseal`'s does.
        """
        return self._refilling([], (nonce, first, count, _blocks(length)))[-1]

    def seal_with(
        self, nonce: bytes, keystream: np.ndarray, plaintext: bytes, aad: bytes = b""
    ) -> bytes:
        """``nonce || ct || tag`` under a keystream drawn for ``nonce``
        (a :meth:`keystream_run` row); byte-equal to ``nonce ||``
        :meth:`encrypt`.  The caller guarantees the row is used once."""
        return nonce + self._encrypt(keystream, plaintext, aad)

    def open_with(self, keystream: np.ndarray, blob: bytes, aad: bytes = b"") -> bytes:
        """Inverse of :meth:`seal_with`, for a caller that knows the blob's
        nonce and has its keystream; raises :class:`InvalidTag`."""
        body = len(blob) - NONCE_SIZE - TAG_SIZE
        if body < 0 or _blocks(body) > len(keystream):
            raise InvalidTag("sealed blob does not fit the keystream")
        return self._decrypt(keystream, blob[NONCE_SIZE:], aad)

    # -- session contexts ------------------------------------------------------

    @classmethod
    def derive(cls, key) -> "AESGCM":
        """A cached :class:`AESGCM` for ``key``.

        The first derivation per key pays the key schedule, and the first
        messages under it the GHASH table builds; later calls return the
        same context from a bounded process-wide LRU.  Sharing is sound
        because the only state an :class:`AESGCM` changes is guarded:
        every ``seal``/``unseal`` works in its own scratch arrays, the table
        tuple only ever grows under a lock, and each reservoir slot (a
        pre-drawn nonce and its keystream) is taken out under a lock
        before use and never put back, so no two threads, sessions or
        messages ever seal under one nonce.  One context can serve any
        number of threads and sessions.

        Memory: a context holds at most :data:`GHASH_TABLE_CAP_BYTES`
        (576 KiB) of tables however long the messages it seals, plus at
        most :data:`RESERVOIR_BLOCKS` blocks (4 KiB) of pre-drawn
        keystream, so the cache is bounded by ``SESSION_CACHE_CAPACITY``
        x (cap + reservoir) = 128 x (576 + 4) KiB = 72.5 MiB, reached only
        if every cached key has sealed a message over 4 KiB (a context
        that has only seen 64-byte stream frames holds 192 + 4 KiB).  A
        context that has sealed or opened a message of at most one block
        also holds the 512 ints of its ``H^2`` nibble table, at most
        32 KiB more (512 ints of 128 bits); one that never has holds none.

        Invalidation: the cache is keyed on the key *material*, so a
        rotated or re-granted key derives a new context automatically;
        callers that must drop a retired key's state promptly (re-grant,
        rotation, key-shard failover) call :func:`evict_session` /
        :func:`clear_session_cache`.
        """
        material = _key_material(key)
        with _SESSION_LOCK:
            cached = _SESSION_CACHE.get(material)
            if cached is not None:
                _SESSION_CACHE.move_to_end(material)
                return cached
        # build outside the lock: the key schedule is the slow part
        cipher = cls(material)
        with _SESSION_LOCK:
            existing = _SESSION_CACHE.get(material)
            if existing is not None:
                return existing
            _SESSION_CACHE[material] = cipher
            while len(_SESSION_CACHE) > SESSION_CACHE_CAPACITY:
                _SESSION_CACHE.popitem(last=False)
        return cipher


#: process-wide derived-context LRU; key material -> AESGCM
SESSION_CACHE_CAPACITY = 128
_SESSION_CACHE: "OrderedDict[bytes, AESGCM]" = OrderedDict()
_SESSION_LOCK = threading.Lock()


def evict_session(key) -> bool:
    """Drop the cached session context for ``key`` (if any).

    The explicit-invalidation hook for re-grant, key rotation, and
    key-shard failover: the retired key's expanded state is released
    immediately instead of aging out of the LRU.  Returns whether an
    entry was present.
    """
    material = _key_material(key)
    with _SESSION_LOCK:
        return _SESSION_CACHE.pop(material, None) is not None


def clear_session_cache() -> int:
    """Drop every cached session context; returns how many were held."""
    with _SESSION_LOCK:
        count = len(_SESSION_CACHE)
        _SESSION_CACHE.clear()
    return count


def session_cache_size() -> int:
    """How many derived contexts the process-wide cache currently holds."""
    with _SESSION_LOCK:
        return len(_SESSION_CACHE)


def frame_nonce(nonce: bytes, index: int) -> bytes:
    """The nonce of frame ``index`` of a stream whose base nonce is ``nonce``:
    ``index`` XORed into its low 32 bits."""
    return nonce[:8] + (int.from_bytes(nonce[8:], "big") ^ index).to_bytes(4, "big")


def _blocks(length: int) -> int:
    """Keystream blocks a ``length``-byte message needs: the tag mask + CTR."""
    return 1 + -(-length // 16)


def _one_block(data: bytes, keystream: np.ndarray) -> tuple[int, bytes]:
    """The tag mask ``E_K(J0)`` as an int and ``data`` (at most one block)
    XOR its CTR block, from one :meth:`AESGCM._keystreams` run."""
    rows = keystream[:2].tobytes()
    length = len(data)
    masked = int.from_bytes(data, "big") ^ int.from_bytes(rows[16 : 16 + length], "big")
    return int.from_bytes(rows[:16], "big"), masked.to_bytes(length, "big")


def _xor_stream(data: bytes, keystream: np.ndarray) -> bytes:
    """``data`` XOR the CTR rows (1..) of one :meth:`AESGCM._keystreams` run."""
    stream = keystream.reshape(-1)[16 : 16 + len(data)]
    return (np.frombuffer(data, dtype=np.uint8) ^ stream).tobytes()
