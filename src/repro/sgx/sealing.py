"""Sealed storage: encrypt data so only the same enclave identity can read it.

SGX derives sealing keys inside the CPU from a fused root secret and the
enclave's identity, so data sealed by one enclave can be unsealed only by
an enclave with the same MRENCLAVE on the same platform.  We model the
fused root as a per-platform secret held by :class:`SealingService` and
derive per-identity AES keys from it with HKDF, with the MRENCLAVE also
bound as associated data so ciphertexts cannot be re-targeted.
"""

from __future__ import annotations

from repro.crypto.gcm import AESGCM
from repro.crypto.hashes import hkdf
from repro.crypto.keys import random_bytes
from repro.errors import SealingError
from repro.sgx.enclave import Enclave


class SealingService:
    """Derives sealing keys from a per-platform root secret."""

    def __init__(self, root_secret: bytes | None = None) -> None:
        self._root = root_secret if root_secret is not None else random_bytes(32)

    def _cipher_for(self, mrenclave_hex: str) -> AESGCM:
        key = hkdf(self._root, length=16, info=b"seal:" + mrenclave_hex.encode())
        return AESGCM(key)

    def seal(self, enclave: Enclave, plaintext: bytes) -> bytes:
        """Seal ``plaintext`` to ``enclave``'s identity."""
        identity = enclave.measurement.value
        cipher = self._cipher_for(identity)
        return cipher.seal(plaintext, aad=identity.encode())

    def unseal(self, enclave: Enclave, blob: bytes) -> bytes:
        """Unseal ``blob``; fails for any other enclave identity."""
        identity = enclave.measurement.value
        cipher = self._cipher_for(identity)
        try:
            return cipher.unseal(blob, aad=identity.encode())
        except Exception as exc:
            raise SealingError(
                "sealed blob does not belong to this enclave identity"
            ) from exc
