"""The two algebraic groups: one for key exchange, one for quote signatures.

**Key exchange** uses the 2048-bit MODP group 14 from RFC 3526.  Its modulus
``P`` is a safe prime (``P = 2Q + 1`` with ``Q`` prime), so the squares form
the subgroup of prime order ``Q`` and ``G = 4`` (= 2 squared) generates it.
On a safe prime that subgroup *is* the set of quadratic residues, so
membership (:func:`is_group_element`) is the Jacobi symbol ``(x/P) == 1`` --
Euclid-style integer steps, ~0.4 ms -- rather than Euler's criterion
``x^Q == 1``, a full 2047-bit modular exponentiation.  Ephemeral private keys
are 256 bits (:func:`random_short_scalar`): on a safe-prime group whose
received keys are checked for membership that loses nothing
(docs/protocol.md section 1), and it makes ``peer^x`` a 256-bit
exponentiation.

**Quote signatures** use FIPS 186-4 style (L = 2048, N = 256) Schnorr
parameters: ``SIG_P`` is a 2048-bit prime, ``SIG_Q`` a 256-bit prime dividing
``SIG_P - 1`` and ``SIG_G`` an element of order ``SIG_Q``.  Every signing
key, nonce and signature scalar is uniform over the *whole* 256-bit order
(:func:`random_sig_scalar`), so nothing there rests on a short-exponent
assumption -- the group is small, not the exponent.  ``SIG_P`` is not a safe
prime: membership of a received key is ``y^SIG_Q == 1``
(:mod:`repro.crypto.signature`).  The three constants are literals derived
from a published SHAKE-256 label by ``scripts/make_sig_group.py`` (``--check``
re-derives them); nothing is generated or primality-tested at run time.

Every exponent either group ever raises a long-lived base to is therefore at
most 256 bits, and each such base -- ``G``, ``SIG_G``, the inverse of a
provisioned attestation root key -- has one :class:`FixedBase`: a Lim-Lee
comb table (1,024 residues, ~0.3 MB, ~12.5 ms to build on first use) through
which a power is 8 squarings and at most 32 multiplications (~0.5 ms) where
the built-in ``pow`` spends 256 squarings (~3 ms).

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

# The quote-signature group: derived by scripts/make_sig_group.py from
# SHAKE-256("repro.crypto.group: quote-signature group, FIPS 186-4 (L=2048, N=256), v1").
SIG_P = int(
    "F131FD7B43536A7D764BBFC50C9E56FA299E438558790ED6"
    "FF51CCCB2D67D7F4D164DB14DF6B42092E4D00DBFD312EF4"
    "82ABDEDFE11F3F2C3074EECBC6955BAED58E674F68728478"
    "D4736EF25189EF008E0BB92E215291D586C50650AE3CCB85"
    "D0CE8831E1E8A6DBDC8F06EFD158DD12B5D07A9AB8ECBB3C"
    "82646CF59D1BB6C9BBCE6E212821F37020E898A2684AE0C3"
    "2CC59A8A2725FAF209973A528623A8D9E84BC7B83F0DF6E9"
    "2C832B155F70A955BF6DF7828351C46A89D61DAC5EC21F4C"
    "050957C426CD8ADEE60B64BD7BB91CC0AF05DFE0747F816C"
    "F964FCE63505BD51F96439843B208C86CEED57CB304BD55A"
    "F661A640056C75619146948F1973AE3B",
    16,
)
SIG_Q = int("81F48383240C8613DC7CD79B167C3C2FE96AA69C588D6553B41D25E35D9B082B", 16)
SIG_G = int(
    "A1156801084DCD9DDB4A74CE1DD5E6046F46FD8A3D3EEC02"
    "E31EB1A50A00BF35D07BCAB233153D7A8D65D9136EEC2524"
    "B5BC8B4965AC7EC92EF05854B7B625C9088B43083EDB3885"
    "2F8FACE16C24BC5D2471526E99D014C9538C0678E9F13F1B"
    "66E13E9C7C33C7FD95028CF62263E4FA90DC6D19FAE93D82"
    "BA39B7D66F633DFE9E5E9F9FF589D3C1BE8B897AEAD3CBC0"
    "2BF23F0EC7B7549799ECD5D5C5D70E3FDB4807E9B58ACC24"
    "DF1EFEEAA56DD2FE3F066283A107DFCE9C3C0349EFEA900F"
    "81B9B74BD83E4A88C85B8F8B8E74B79D6D70E176EDB689AC"
    "67B2658B9ACC79EDAEA814380F58D4F3332BF8281916058C"
    "8AEEAAA013DAD712C1BBFBEEB55E55DC",
    16,
)

SHORT_SCALAR_BITS = 256  # an ephemeral DH private key; SIG_Q happens to be as long

# Comb geometry: an exponent is 8 teeth of 32 bits -- 256 bits, which covers
# both kinds of scalar; each tooth is cut into 4 blocks of 8 columns, and each
# block has its own 256 products.
_TEETH, _SPAN, _BLOCKS = 8, 32, 4
_COLUMNS = _SPAN // _BLOCKS
_EXPONENT_BITS = _TEETH * _SPAN


def random_short_scalar() -> int:
    """A uniform random exponent in ``[1, 2^256)``: an ephemeral DH private key.

    Only :meth:`repro.crypto.dh.DHKeyPair.generate` draws here.  Finding a
    256-bit exponent from its public key costs 2^128 (Pollard lambda), more
    than attacking the 2048-bit modulus itself, and ``P`` being a safe prime
    whose received keys are membership-checked leaves no small subgroup to
    learn the exponent in pieces from (RFC 7919 section 5.2, SP 800-56A r3).
    """
    return secrets.randbelow((1 << SHORT_SCALAR_BITS) - 1) + 1


def random_sig_scalar() -> int:
    """A uniform random exponent in ``[1, SIG_Q)``: a Schnorr key or nonce.

    The whole order, not a short slice of it: ``s = k + x*e mod SIG_Q`` hides
    ``x*e`` only under a ``k`` uniform over all of ``[1, SIG_Q)``.
    """
    return secrets.randbelow(SIG_Q - 1) + 1


def element_to_bytes(x: int) -> bytes:
    """Fixed-width big-endian encoding of an element of either group."""
    return x.to_bytes(256, "big")


def is_group_element(x: int) -> bool:
    """True when ``x`` is a non-identity element of the order-Q subgroup mod ``P``.

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


class FixedBase:
    """``base^x mod modulus`` for ``0 <= x < 2^256`` through a comb table.

    For a base that outlives many exponentiations: the table costs about as
    much as four built-in ``pow`` calls to build and is built on first use.
    """

    def __init__(self, base: int, modulus: int) -> None:
        self.base, self.modulus = base, modulus

    @functools.cached_property
    def table(self) -> tuple:
        """``table[b << 8 | j]`` = the product of ``base^(2^(32 k + 8 b))`` over bits ``k`` of ``j``.

        Threads racing on first use may each build it; every build is equal
        and one is kept.
        """
        base, modulus = self.base, self.modulus
        anchors, power = [], base
        for _ in range(_TEETH * _BLOCKS):  # anchors[k * _BLOCKS + b] = base^(2^(32 k + 8 b))
            anchors.append(power)
            for _ in range(_COLUMNS):
                power = power * power % modulus
        table = []
        for block in range(_BLOCKS):
            row = [1] * (1 << _TEETH)
            for j in range(1, 1 << _TEETH):
                low = j & -j
                row[j] = row[j ^ low] * anchors[(low.bit_length() - 1) * _BLOCKS + block] % modulus
            table += row
        return tuple(table)

    def pow(self, x: int) -> int:
        """``base^x mod modulus``; an exponent outside ``[0, 2^256)`` is refused."""
        if x < 0 or x >> _EXPONENT_BITS:
            raise ValueError("fixed-base exponent outside [0, 2^256)")
        table, modulus = self.table, self.modulus
        bits = format(x, "b").zfill(_EXPONENT_BITS)
        teeth = [bits[start : start + _SPAN] for start in range(0, _EXPONENT_BITS, _SPAN)]
        # the most significant tooth comes first, so it lands in the index's top bit
        columns = [int("".join(column), 2) for column in zip(*teeth)]
        result = 1
        for i in range(_COLUMNS):  # most significant column of every block first
            result = result * result % modulus
            for block in range(_BLOCKS):
                index = columns[(_BLOCKS - 1 - block) * _COLUMNS + i]
                result = result * table[block << _TEETH | index] % modulus
        return result


#: ``G^x mod P`` (ephemeral DH public keys) and ``SIG_G^x mod SIG_P`` (signing
#: nonces, verify keys, the ``g^s`` half of verification): one table each per process
g_pow = FixedBase(G, P).pow
sig_g_pow = FixedBase(SIG_G, SIG_P).pow
