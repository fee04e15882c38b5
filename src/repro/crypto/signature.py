"""Schnorr signatures in the 256-bit-order quote-signature group.

These stand in for the ECDSA-P256 signatures that Intel's quoting
infrastructure applies to attestation quotes, and mirror their shape: a
256-bit prime group order, two 32-byte scalars on the wire.  The construction
is standard Schnorr in the order-``SIG_Q`` subgroup generated by ``SIG_G``
modulo ``SIG_P`` (:mod:`repro.crypto.group`): the signature is ``(e, s)`` with
``e = H(g^k || m) mod SIG_Q`` and ``s = k + x*e mod SIG_Q``.

The signing key ``x`` and every nonce ``k`` are uniform over the whole of
``[1, SIG_Q)`` (:func:`repro.crypto.group.random_sig_scalar`): ``s`` is
computed mod ``SIG_Q``, and a ``k`` shorter than the order would no longer
mask ``x*e`` -- each signature would leak the signing key's high bits.  A
signer only ever exponentiates ``SIG_G``, never a value it received, so the
many small subgroups modulo ``SIG_P`` (it is not a safe prime) give an
attacker nothing to confine its key to; a *verifier* checks that the key it
verifies under lies in the order-``SIG_Q`` subgroup.
"""

from __future__ import annotations

import functools
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
        return self.e.to_bytes(32, "big") + self.s.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Signature":
        if len(raw) != 32 + 32:
            raise InvalidSignature("malformed signature encoding")
        return cls(
            e=int.from_bytes(raw[:32], "big"),
            s=int.from_bytes(raw[32:], "big"),
        )


def _challenge(commitment: int, message: bytes) -> int:
    digest = sha256(group.element_to_bytes(commitment) + message)
    return int.from_bytes(digest, "big") % group.SIG_Q


@dataclass(frozen=True)
class VerifyKey:
    """A Schnorr public key."""

    value: int

    @functools.cached_property
    def _inverse(self) -> group.FixedBase:
        """Powers of ``1/y``; its table lives as long as this key object does.

        The system verifies under long-lived provisioned attestation roots
        only, so the table is built once per root, not once per quote.
        """
        return group.FixedBase(pow(self.value, -1, group.SIG_P), group.SIG_P)

    def verify(self, message: bytes, signature: Signature) -> None:
        """Raise :class:`InvalidSignature` unless ``signature`` is valid."""
        # The range first: 0 and SIG_P have no inverse, 1 is the identity.  Then
        # subgroup membership, y^SIG_Q = 1, asked of 1/y (the same question)
        # because that is the base with a table.
        if not 1 < self.value < group.SIG_P or self._inverse.pow(group.SIG_Q) != 1:
            raise InvalidSignature("verify key is not a valid group element")
        if not (0 <= signature.e < group.SIG_Q and 0 <= signature.s < group.SIG_Q):
            raise InvalidSignature("signature scalars out of range")
        # r' = g^s * y^{-e};  valid iff H(r' || m) == e
        y_inv_e = self._inverse.pow(signature.e)
        commitment = group.sig_g_pow(signature.s) * y_inv_e % group.SIG_P
        if _challenge(commitment, message) != signature.e:
            raise InvalidSignature("Schnorr verification failed")

    def to_bytes(self) -> bytes:
        """Fixed-width big-endian encoding of the public value."""
        return group.element_to_bytes(self.value)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "VerifyKey":
        if len(raw) != 256:
            raise InvalidSignature("malformed verify key encoding")
        return cls(int.from_bytes(raw, "big"))


@dataclass(frozen=True)
class SigningKey:
    """A Schnorr private key."""

    scalar: int = field(repr=False)

    @classmethod
    def generate(cls) -> "SigningKey":
        return cls(group.random_sig_scalar())

    @property
    def verify_key(self) -> VerifyKey:
        return VerifyKey(group.sig_g_pow(self.scalar))

    def sign(self, message: bytes) -> Signature:
        """Produce a Schnorr signature over ``message``."""
        k = group.random_sig_scalar()
        commitment = group.sig_g_pow(k)
        e = _challenge(commitment, message)
        s = (k + self.scalar * e) % group.SIG_Q
        return Signature(e=e, s=s)
