"""Schnorr signatures over the RFC 3526 group.

These stand in for the ECDSA signatures that Intel's quoting
infrastructure applies to attestation quotes.  The construction is
standard Schnorr in a prime-order subgroup: the signature is ``(e, s)``
with ``e = H(g^k || m)`` and ``s = k + x*e mod Q``.

The signing key ``x`` and every nonce ``k`` are uniform in ``[1, Q)``
(:func:`repro.crypto.group.random_scalar`), unlike the 256-bit ephemeral DH
keys: ``s`` is computed mod ``Q``, and a ``k`` much shorter than ``Q`` would
no longer mask ``x*e`` -- each signature would leak the signing key's high
bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto import group
from repro.crypto.hashes import sha256
from repro.errors import InvalidSignature


@dataclass(frozen=True)
class Signature:
    """A Schnorr signature ``(e, s)``."""

    e: int
    s: int

    def to_bytes(self) -> bytes:
        """Fixed-width encoding ``e || s``."""
        return self.e.to_bytes(32, "big") + self.s.to_bytes(256, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Signature":
        if len(raw) != 32 + 256:
            raise InvalidSignature("malformed signature encoding")
        return cls(
            e=int.from_bytes(raw[:32], "big"),
            s=int.from_bytes(raw[32:], "big"),
        )


def _challenge(commitment: int, message: bytes) -> int:
    digest = sha256(group.element_to_bytes(commitment) + message)
    return int.from_bytes(digest, "big") % group.Q


@dataclass(frozen=True)
class VerifyKey:
    """A Schnorr public key."""

    value: int

    def verify(self, message: bytes, signature: Signature) -> None:
        """Raise :class:`InvalidSignature` unless ``signature`` is valid."""
        if not group.is_group_element(self.value):
            raise InvalidSignature("verify key is not a valid group element")
        if not (0 <= signature.e < group.Q and 0 <= signature.s < group.Q):
            raise InvalidSignature("signature scalars out of range")
        # r' = g^s * y^{-e};  valid iff H(r' || m) == e.  The membership
        # check above established y^Q = 1, so y^{-e} is inverse(y)^e: a
        # 256-bit exponent where y^(Q - e) would spend 2047 bits.
        y_inv_e = pow(pow(self.value, -1, group.P), signature.e, group.P)
        commitment = group.g_pow(signature.s) * y_inv_e % group.P
        if _challenge(commitment, message) != signature.e:
            raise InvalidSignature("Schnorr verification failed")

    def to_bytes(self) -> bytes:
        """Fixed-width big-endian encoding of the public value."""
        return group.element_to_bytes(self.value)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "VerifyKey":
        return cls(int.from_bytes(raw, "big"))


@dataclass(frozen=True)
class SigningKey:
    """A Schnorr private key."""

    scalar: int = field(repr=False)

    @classmethod
    def generate(cls) -> "SigningKey":
        return cls(group.random_scalar())

    @property
    def verify_key(self) -> VerifyKey:
        return VerifyKey(group.g_pow(self.scalar))

    def sign(self, message: bytes) -> Signature:
        """Produce a Schnorr signature over ``message``."""
        k = group.random_scalar()
        commitment = group.g_pow(k)
        e = _challenge(commitment, message)
        s = (k + self.scalar * e) % group.Q
        return Signature(e=e, s=s)
