"""Capture AES-GCM known-answer vectors from the checkout on the path.

``tests/crypto/data/gcm_kat.json`` was written by this script running against
commit a19a89a (the cipher before the T-table / log-depth-GHASH rebuild)::

    PYTHONPATH=<checkout of a19a89a>/src python scripts/make_gcm_kat.py

so ``tests/crypto/test_gcm_kat.py`` pins every later cipher core to that
one's exact bytes.  Re-running it against a newer checkout only re-derives the
file from the code under test; do that deliberately, never to make a test pass.

Only the public API is used.  Plaintexts and nonces are derived from SHAKE-256
so the file stores lengths, not megabytes; ciphertexts above 100 bytes are
stored as their SHA-256.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.crypto.aes import AES
from repro.crypto.gcm import AESGCM, TAG_SIZE

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests/crypto/data/gcm_kat.json"

PLAINTEXT_SIZES = (0, 1, 15, 16, 17, 64, 100, 3072, 4096, 65541, 300_001)
AAD_SIZES = (0, 5, 16, 33)
KEY_SIZES = (16, 24, 32)
INLINE_LIMIT = 100

_R = 0xE1 << 120


def derived(label: str, size: int) -> bytes:
    """``size`` deterministic bytes for ``label`` (the test re-derives them)."""
    return hashlib.shake_256(label.encode()).digest(size)


def gf_mult(x: int, y: int) -> int:
    """Bitwise GF(2^128) product in GCM's bit order (SP 800-38D, Alg. 1)."""
    z, v = 0, x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        v = (v >> 1) ^ _R if v & 1 else v >> 1
    return z


def gf_inverse(x: int) -> int:
    """``x^(2^128 - 2)`` by square-and-multiply."""
    result, base, exponent = 1 << 127, x, (1 << 128) - 2  # 1 << 127 is the field's one
    while exponent:
        if exponent & 1:
            result = gf_mult(result, base)
        base = gf_mult(base, base)
        exponent >>= 1
    return result


def nonce_for_j0(key: bytes, j0: bytes) -> bytes:
    """The 16-byte nonce whose derived pre-counter block is exactly ``j0``.

    For a 128-bit IV, ``J0 = (IV*H ^ L)*H`` with ``L`` the length block, so
    ``IV = (J0*H^-1 ^ L)*H^-1``: the only way to start the 32-bit counter next
    to its wrap, since a 96-bit nonce always starts it at 1.
    """
    h = int.from_bytes(AES(key).encrypt_block(b"\x00" * 16), "big")
    h_inv = gf_inverse(h)
    length_block = 128
    iv = gf_mult(gf_mult(int.from_bytes(j0, "big"), h_inv) ^ length_block, h_inv)
    return iv.to_bytes(16, "big")


def gcm_case(key: bytes, nonce: bytes, pt_len: int, aad: bytes, **extra) -> dict:
    plaintext = derived(f"pt:{pt_len}", pt_len)
    wire = AESGCM(key).encrypt(nonce, plaintext, aad)
    body, tag = wire[:-TAG_SIZE], wire[-TAG_SIZE:]
    case = {
        "key": key.hex(),
        "nonce": nonce.hex(),
        "aad": aad.hex(),
        "pt_len": pt_len,
        "ct": body.hex() if pt_len <= INLINE_LIMIT else None,
        "ct_sha256": hashlib.sha256(body).hexdigest(),
        "tag": tag.hex(),
    }
    case.update(extra)
    return case


def gcm_cases() -> list[dict]:
    cases = []
    for key_size in KEY_SIZES:
        key = derived(f"key:{key_size}", key_size)
        for pt_len in PLAINTEXT_SIZES:
            for aad_len in AAD_SIZES:
                nonce = derived(f"nonce:{key_size}:{pt_len}:{aad_len}", 12)
                cases.append(gcm_case(key, nonce, pt_len, derived(f"aad:{aad_len}", aad_len)))
        # nonces that are not 96 bits go through GHASH to make J0
        for nonce_len in (1, 8, 16, 60):
            nonce = derived(f"long-nonce:{key_size}:{nonce_len}", nonce_len)
            cases.append(gcm_case(key, nonce, 100, derived("aad:5", 5)))
        # the 32-bit block counter wraps inside the message
        for pt_len in (100, 4096):
            j0 = derived(f"j0:{key_size}", 12) + (0xFFFFFFFD).to_bytes(4, "big")
            nonce = nonce_for_j0(key, j0)
            cases.append(gcm_case(key, nonce, pt_len, derived("aad:33", 33), j0=j0.hex()))
    return cases


def main() -> None:
    document = {
        "source": "scripts/make_gcm_kat.py run against commit a19a89a",
        "derivation": "bytes = shake_256(label).digest(n); plaintext label 'pt:<n>'",
        "gcm": gcm_cases(),
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {len(document['gcm'])} GCM cases to {OUT}")


if __name__ == "__main__":
    main()
