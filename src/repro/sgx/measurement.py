"""Enclave identity (MRENCLAVE) computation.

On real SGX the MRENCLAVE is a SHA-256 accumulated over every page added
to the enclave at build time, so it covers the enclave *code* and its
*build configuration* but not runtime inputs.  Our functional model
reproduces exactly that contract:

- the measurement covers the enclave code identity (the Python source of
  the enclave-code class) and the build configuration (TCS count, heap
  size, execution-restriction flags, ...);
- it does **not** cover models, keys, or requests, which are runtime data
  (Appendix B of the paper);
- any change to code or config yields a different identity, which is what
  lets KeyService enforce "keys only to enclave :math:`E_S`".
"""

from __future__ import annotations

import hashlib
import inspect
import json
import weakref
from dataclasses import dataclass
from typing import Any, Mapping


@dataclass(frozen=True, order=True)
class EnclaveMeasurement:
    """An MRENCLAVE value (hex-encoded SHA-256)."""

    value: str

    def __post_init__(self) -> None:
        if len(self.value) != 64 or any(c not in "0123456789abcdef" for c in self.value):
            raise ValueError("measurement must be 64 lowercase hex chars")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value[:16] + "..."

    def to_bytes(self) -> bytes:
        """The raw 32-byte digest."""
        return bytes.fromhex(self.value)


def _canonical_config(config: Mapping[str, Any]) -> bytes:
    """Deterministic encoding of a build configuration."""
    try:
        return json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    except TypeError as exc:
        raise ValueError(f"enclave config must be JSON-serialisable: {exc}") from exc


#: class object -> identity.  MRENCLAVE is a property of the *loaded* code:
#: a source file edited under a running process does not change what an
#: already-imported class executes, so it must not change what it measures.
_identities: "weakref.WeakKeyDictionary[type, bytes]" = weakref.WeakKeyDictionary()


def code_identity_of(obj: Any) -> bytes:
    """Stable identity of enclave code: hash of its class source.

    Editing the enclave code (even a single line) changes the identity,
    mirroring how re-building an enclave changes MRENCLAVE.  If source is
    unavailable (e.g. classes defined in a REPL) the qualified name is
    used, which still distinguishes different enclave programs.  The
    source is read and hashed once per class object (re-tokenising an
    800-line class costs ~20 ms, and every enclave launch asks).
    """
    cls = obj if inspect.isclass(obj) else type(obj)
    identity = _identities.get(cls)
    if identity is None:
        try:
            source = inspect.getsource(cls)
        except (OSError, TypeError):
            source = f"{cls.__module__}.{cls.__qualname__}"
        identity = _identities[cls] = hashlib.sha256(source.encode()).digest()
    return identity


def measure(code_identity: bytes, config: Mapping[str, Any]) -> EnclaveMeasurement:
    """Compute the MRENCLAVE of enclave code + build configuration."""
    h = hashlib.sha256()
    h.update(b"MRENCLAVE\x00")
    h.update(code_identity)
    h.update(_canonical_config(config))
    return EnclaveMeasurement(h.hexdigest())
