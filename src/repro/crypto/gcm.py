"""AES-GCM authenticated encryption (NIST SP 800-38D) from scratch.

Both halves of a call are a fixed number of numpy steps.  The CTR keystream
and ``E_K(J0)`` (the tag mask) come out of *one* batch through the T-table AES
path: ``J0`` rides as block 0 of the counter blocks.  GHASH is evaluated as a
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
"""

from __future__ import annotations

import hmac
import struct
import threading
from collections import OrderedDict

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

_LANE = np.dtype("V16")  # one 128-bit field element, moved as an opaque unit
# table row of byte value b at block position j is 256 * j + b
_POSITION = (np.arange(16, dtype=np.intp) * 256).reshape(16, 1)
# the table rows holding power * x^i, i = 8j + t: byte j set to bit 7 - t
_BIT_ROWS = (_POSITION + (0x80 >> np.arange(8, dtype=np.intp))).reshape(128)


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
    kept, so on the hot path prefer
    :meth:`AESGCM.derive`: it returns a cached :class:`SessionCipher`
    wrapping that state, and repeat requests under the same key skip the
    rebuild; per-call construction is deprecated there (cold-path and
    one-shot uses are fine).
    """

    def __init__(self, key) -> None:
        self._aes = AES(_key_material(key))
        self._h = self._aes.encrypt_block(b"\x00" * 16)
        # _tables[l] multiplies by H^(2^l).  Only ever replaced by a longer
        # tuple, under _grow_lock; readers take whichever tuple they see.
        self._tables: tuple[np.ndarray, ...] = ()
        self._grow_lock = threading.Lock()

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
            return nonce + b"\x00\x00\x00\x01"
        return self._ghash(b"", nonce).tobytes()

    def _keystream(self, j0: bytes, length: int) -> np.ndarray:
        """``E_K(J0), E_K(J0 + 1), ...`` as ``(1 + ceil(length / 16), 16)`` bytes.

        Row 0 masks the tag; rows 1.. are the CTR keystream for ``length``
        bytes.  One AES batch for both.
        """
        count = 1 + -(-length // 16)
        first = int.from_bytes(j0[12:], "big")
        blocks = np.empty((count, 4), dtype=">u4")
        blocks[:, :3] = np.frombuffer(j0, dtype=">u4", count=3)
        # the narrowing store keeps the low 32 bits: the counter wraps mod 2^32
        blocks[:, 3] = np.arange(first, first + count, dtype=np.uint64)
        return self._aes.encrypt_blocks(blocks.view(np.uint8))

    # -- public AEAD API -----------------------------------------------------

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt ``plaintext``; returns ``ciphertext || 16-byte tag``."""
        keystream = self._keystream(self._j0(nonce), len(plaintext))
        ciphertext = _xor_stream(plaintext, keystream)
        tag = self._ghash(aad, ciphertext)
        tag ^= keystream[0].view(np.uint64)
        return ciphertext + tag.tobytes()

    def decrypt(self, nonce: bytes, ciphertext: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt ``ciphertext || tag``; raises :class:`InvalidTag`."""
        if len(ciphertext) < TAG_SIZE:
            raise InvalidTag("ciphertext shorter than the authentication tag")
        body, tag = ciphertext[:-TAG_SIZE], ciphertext[-TAG_SIZE:]
        keystream = self._keystream(self._j0(nonce), len(body))
        expected = self._ghash(aad, body)
        expected ^= keystream[0].view(np.uint64)
        if not hmac.compare_digest(tag, expected.tobytes()):
            raise InvalidTag("AES-GCM tag mismatch")
        return _xor_stream(body, keystream)

    # -- sealed-blob convenience ----------------------------------------------

    def seal(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt with a fresh random nonce; returns ``nonce || ct || tag``."""
        nonce = random_bytes(NONCE_SIZE)
        return nonce + self.encrypt(nonce, plaintext, aad)

    def open(self, blob: bytes, aad: bytes = b"") -> bytes:
        """Inverse of :meth:`seal`."""
        if len(blob) < NONCE_SIZE + TAG_SIZE:
            raise InvalidTag("sealed blob too short")
        return self.decrypt(blob[:NONCE_SIZE], blob[NONCE_SIZE:], aad)

    # -- session contexts ------------------------------------------------------

    @classmethod
    def derive(cls, key) -> "SessionCipher":
        """A cached :class:`SessionCipher` for ``key``.

        The first derivation per key pays the key schedule, and the first
        messages under it the GHASH table builds; later calls return the
        same context from a bounded process-wide LRU.  Sharing is sound
        because an :class:`AESGCM` holds no per-message state (every
        ``seal``/``open`` draws a fresh nonce and works in its own scratch
        arrays) and its table tuple only ever grows, under a lock, so one
        context can serve any number of threads and sessions.

        Memory: a context holds at most :data:`GHASH_TABLE_CAP_BYTES`
        (576 KiB) of tables however long the messages it seals, so the
        cache is bounded by ``SESSION_CACHE_CAPACITY`` x cap = 128 x
        576 KiB = 72 MiB, reached only if every cached key has sealed a
        message over 4 KiB (a context that has only seen 64-byte stream
        frames holds 192 KiB).

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
        cipher = SessionCipher(cls(material))
        with _SESSION_LOCK:
            existing = _SESSION_CACHE.get(material)
            if existing is not None:
                return existing
            _SESSION_CACHE[material] = cipher
            while len(_SESSION_CACHE) > SESSION_CACHE_CAPACITY:
                _SESSION_CACHE.popitem(last=False)
        return cipher


class SessionCipher:
    """A reusable sealed-context handle over one derived :class:`AESGCM`.

    Obtained from :meth:`AESGCM.derive`; carries the expanded key
    schedule and GHASH tables across a hot session so only the first
    requests under a key pay their construction.  Thread-safe: the only
    state that ever changes is the table tuple, which grows under a lock.
    ``seal``/``unseal`` are the random-nonce blob API the
    hot path uses; ``encrypt``/``decrypt`` expose the explicit-nonce
    primitives for callers that manage nonces themselves.
    """

    __slots__ = ("_gcm",)

    def __init__(self, gcm: AESGCM) -> None:
        self._gcm = gcm

    def seal(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt with a fresh random nonce; returns ``nonce || ct || tag``."""
        return self._gcm.seal(plaintext, aad)

    def unseal(self, blob: bytes, aad: bytes = b"") -> bytes:
        """Inverse of :meth:`seal`; raises :class:`InvalidTag`."""
        return self._gcm.open(blob, aad)

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Explicit-nonce :meth:`AESGCM.encrypt` on the derived state."""
        return self._gcm.encrypt(nonce, plaintext, aad)

    def decrypt(self, nonce: bytes, ciphertext: bytes, aad: bytes = b"") -> bytes:
        """Explicit-nonce :meth:`AESGCM.decrypt` on the derived state."""
        return self._gcm.decrypt(nonce, ciphertext, aad)


#: process-wide derived-context LRU; key material -> SessionCipher
SESSION_CACHE_CAPACITY = 128
_SESSION_CACHE: "OrderedDict[bytes, SessionCipher]" = OrderedDict()
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


def _xor_stream(data: bytes, keystream: np.ndarray) -> bytes:
    """``data`` XOR the CTR rows (1..) of a :meth:`AESGCM._keystream` batch."""
    stream = keystream.reshape(-1)[16 : 16 + len(data)]
    return (np.frombuffer(data, dtype=np.uint8) ^ stream).tobytes()
