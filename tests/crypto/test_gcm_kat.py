"""Known-answer vectors captured from the pre-rebuild cipher (commit a19a89a).

``data/gcm_kat.json`` was written by ``scripts/make_gcm_kat.py`` before the
AES-GCM core was replaced; every later core must reproduce those bytes.
"""

import hashlib
import json
import pathlib

import pytest

from repro.crypto.aes import AES
from repro.crypto.gcm import AESGCM
from repro.errors import InvalidTag

KAT = json.loads((pathlib.Path(__file__).parent / "data" / "gcm_kat.json").read_text())


def derived(label: str, size: int) -> bytes:
    return hashlib.shake_256(label.encode()).digest(size)


def _case_id(case):
    return (
        f"k{len(case['key']) // 2}-n{len(case['nonce']) // 2}"
        f"-pt{case['pt_len']}-aad{len(case['aad']) // 2}{'-wrap' if 'j0' in case else ''}"
    )


@pytest.mark.parametrize("case", KAT["gcm"], ids=_case_id)
def test_gcm_known_answer(case):
    cipher = AESGCM(bytes.fromhex(case["key"]))
    nonce, aad = bytes.fromhex(case["nonce"]), bytes.fromhex(case["aad"])
    plaintext = derived(f"pt:{case['pt_len']}", case["pt_len"])

    wire = cipher.encrypt(nonce, plaintext, aad)
    body, tag = wire[:-16], wire[-16:]
    assert len(body) == case["pt_len"]
    assert hashlib.sha256(body).hexdigest() == case["ct_sha256"]
    if case["ct"] is not None:
        assert body.hex() == case["ct"]
    assert tag.hex() == case["tag"]

    assert cipher.decrypt(nonce, wire, aad) == plaintext

    # one flipped bit anywhere in ciphertext || tag must be refused
    bit = int.from_bytes(derived(f"flip:{_case_id(case)}", 4), "big") % (len(wire) * 8)
    tampered = bytearray(wire)
    tampered[bit // 8] ^= 1 << (bit % 8)
    with pytest.raises(InvalidTag):
        cipher.decrypt(nonce, bytes(tampered), aad)


@pytest.mark.parametrize(
    "case", [c for c in KAT["gcm"] if "j0" in c], ids=_case_id
)
def test_counter_wrap_vectors_really_wrap(case):
    """The keystream of a wrap vector is E(J0+1), E(J0+2), E(J0+3 = ..00000000), ..."""
    key, j0 = bytes.fromhex(case["key"]), bytes.fromhex(case["j0"])
    assert j0[12:] == b"\xff\xff\xff\xfd"
    plaintext = derived(f"pt:{case['pt_len']}", case["pt_len"])
    body = AESGCM(key).encrypt(bytes.fromhex(case["nonce"]), plaintext, b"")[:-16]
    aes = AES(key)
    for block in range(5):
        counter = (0xFFFFFFFD + 1 + block) % (1 << 32)
        keystream = aes.encrypt_block(j0[:12] + counter.to_bytes(4, "big"))
        chunk = slice(16 * block, 16 * block + 16)
        assert bytes(a ^ b for a, b in zip(body[chunk], plaintext[chunk])) == keystream

