"""The shared algebraic group for key exchange and signatures.

We use the 2048-bit MODP group 14 from RFC 3526.  Its modulus ``P`` is a
safe prime (``P = 2Q + 1`` with ``Q`` prime), so the squares form a prime-
order subgroup of order ``Q`` -- suitable both for Diffie-Hellman key
exchange and for Schnorr signatures.  ``G = 4`` (= 2 squared) generates
that subgroup.

Two things make the group cheap to use without changing what any function
computes:

- On a safe prime the order-``Q`` subgroup *is* the set of quadratic
  residues, so membership (:func:`is_group_element`) is the Jacobi symbol
  ``(x/P) == 1`` -- Euclid-style integer steps, ~0.4 ms -- rather than
  Euler's criterion ``x^Q == 1``, a full 2047-bit modular exponentiation
  (~27 ms).  The two are the same predicate.
- Every exponentiation of the fixed base ``G`` goes through :func:`g_pow`,
  one Lim-Lee comb loop over lazily built tables shared by the process
  (1,024 residues, ~0.3 MB each).  The full-length table spans 2,048 bits
  (~35 ms to build on first use): 64 squarings and at most 256
  multiplications (~4.4 ms) where the built-in ``pow`` spends 2,047
  squarings (~22 ms).  An exponent of at most 256 bits -- every ephemeral
  DH key, see :func:`random_short_scalar` -- goes through the same loop
  over a table cut for that span (~13 ms to build): 8 squarings and at
  most 32 multiplications (~0.5 ms).

Private exponents come in two lengths, on purpose.  Ephemeral DH keys are
256 bits: on a safe-prime group whose received keys are checked for
membership that loses nothing (docs/protocol.md section 1), and it makes
``peer^x`` a 256-bit exponentiation.  Schnorr signing keys and nonces stay
uniform in ``[1, Q)``.

Like the rest of this twin, none of it claims to run in constant time:
CPython's integers never did, and table indices depend on the exponent.
"""

from __future__ import annotations

import functools
import secrets

# RFC 3526, group 14 (2048-bit MODP).
P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
Q = (P - 1) // 2
G = 4  # generator of the order-Q subgroup of squares

# Comb geometry: an exponent is 8 teeth of ``span`` bits; each tooth is cut
# into 4 blocks of ``span / 4`` columns, and each block has its own 256
# products.  Two spans: 256 bits per tooth covers any exponent below Q,
# 32 bits per tooth covers a short (256-bit) one.
_TEETH, _BLOCKS = 8, 4
_FULL_SPAN = 256
SHORT_SCALAR_BITS = 256
_SHORT_SPAN = SHORT_SCALAR_BITS // _TEETH


def random_scalar() -> int:
    """A uniform random exponent in ``[1, Q)``.

    Schnorr signing keys *and nonces* draw here and nowhere shorter:
    ``s = k + x*e mod Q`` hides ``x*e`` only under a ``k`` that is uniform
    over the whole of ``[1, Q)``; a short nonce leaks the signing key.
    """
    return secrets.randbelow(Q - 1) + 1


def random_short_scalar() -> int:
    """A uniform random exponent in ``[1, 2^256)``: an ephemeral DH private key.

    Only :meth:`repro.crypto.dh.DHKeyPair.generate` draws here.  Finding a
    256-bit exponent from its public key costs 2^128 (Pollard lambda), more
    than attacking the 2048-bit modulus itself, and ``P`` being a safe prime
    whose received keys are membership-checked leaves no small subgroup to
    learn the exponent in pieces from (RFC 7919 section 5.2, SP 800-56A r3).
    """
    return secrets.randbelow((1 << SHORT_SCALAR_BITS) - 1) + 1


def element_to_bytes(x: int) -> bytes:
    """Fixed-width big-endian encoding of a group element."""
    return x.to_bytes(256, "big")


def is_group_element(x: int) -> bool:
    """True when ``x`` is a non-identity element of the order-Q subgroup.

    The identity (1) is excluded: as a DH public key it would fix the
    shared secret regardless of the peer's contribution.
    """
    return 1 < x < P and _jacobi(x, P) == 1


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol ``(a/n)`` for odd positive ``n`` and ``0 <= a < n``."""
    sign = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):  # (2/n) = -1 iff n = +-3 mod 8
            sign = -sign
        if a & n & 3 == 3:  # quadratic reciprocity: both = 3 mod 4
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


@functools.cache
def _comb_table(span: int) -> tuple:
    """``table[b << 8 | j]`` = the product of ``G^(2^(span k + span/4 b))`` over bits ``k`` of ``j``.

    Built into locals and published by the cache in one step; two threads
    racing on first use build the same tuple and one copy is kept.
    """
    columns = span // _BLOCKS
    anchors, power = [], G
    for _ in range(_TEETH * _BLOCKS):  # anchors[k * _BLOCKS + b] = G^(2^(span k + columns b))
        anchors.append(power)
        for _ in range(columns):
            power = power * power % P
    table = []
    for block in range(_BLOCKS):
        row = [1] * (1 << _TEETH)
        for j in range(1, 1 << _TEETH):
            low = j & -j
            row[j] = row[j ^ low] * anchors[(low.bit_length() - 1) * _BLOCKS + block] % P
        table += row
    return tuple(table)


def g_pow(x: int) -> int:
    """``G^x mod P`` for any integer ``x``, through the fixed-base comb."""
    x %= Q  # G has order Q
    span = _SHORT_SPAN if x.bit_length() <= SHORT_SCALAR_BITS else _FULL_SPAN
    table, columns_per_block = _comb_table(span), span // _BLOCKS
    bits = format(x, "b").zfill(_TEETH * span)
    teeth = [bits[start : start + span] for start in range(0, _TEETH * span, span)]
    # the most significant tooth comes first, so it lands in the index's top bit
    columns = [int("".join(column), 2) for column in zip(*teeth)]
    result = 1
    for i in range(columns_per_block):  # most significant column of every block first
        result = result * result % P
        for block in range(_BLOCKS):
            index = columns[(_BLOCKS - 1 - block) * columns_per_block + i]
            result = result * table[block << _TEETH | index] % P
    return result
