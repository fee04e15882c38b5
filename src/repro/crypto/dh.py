"""Finite-field Diffie-Hellman key exchange.

RA-TLS channels in SeSeMI start with an ephemeral DH handshake; the
attestation quote binds the enclave identity to the handshake public key
so that the channel terminates *inside* the attested enclave.  This module
provides the handshake primitive and session-key derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto import group
from repro.crypto.hashes import hkdf
from repro.errors import CryptoError


@dataclass(frozen=True)
class DHPublicKey:
    """A public DH value (element of the order-Q subgroup)."""

    value: int

    def __post_init__(self) -> None:
        if not group.is_group_element(self.value):
            raise CryptoError("DH public key is not a valid group element")

    def to_bytes(self) -> bytes:
        """Fixed-width big-endian encoding of the public value."""
        return group.element_to_bytes(self.value)


@dataclass(frozen=True)
class DHKeyPair:
    """An ephemeral DH key pair."""

    private: int = field(repr=False)
    public: DHPublicKey

    @classmethod
    def generate(cls) -> "DHKeyPair":
        """A fresh pair with a short (256-bit) private exponent.

        Sound because ``P`` is a safe prime and every received key is
        membership-checked (:class:`DHPublicKey`); a peer holding a
        full-length exponent interoperates unchanged.
        """
        private = group.random_short_scalar()
        return cls(private=private, public=DHPublicKey(group.g_pow(private)))

    def shared_secret(self, peer: DHPublicKey) -> bytes:
        """Raw shared secret ``peer^private`` (validated peer element)."""
        return group.element_to_bytes(pow(peer.value, self.private, group.P))


def derive_session_key(
    shared_secret: bytes, transcript: bytes, size: int = 16
) -> bytes:
    """Derive an AES session key from the DH secret and handshake transcript.

    Binding the transcript (both public keys plus the quotes exchanged)
    into the KDF gives the usual protection against mix-and-match attacks
    on handshake messages.
    """
    return hkdf(shared_secret, length=size, info=b"repro-ratls-v1" + transcript)
