"""Known-answer vectors captured from the pre-rebuild public-key code (commit ead9130).

``data/pk_kat.json`` was written by ``scripts/make_pk_kat.py`` running against
ead9130 -- Euler-criterion membership, ``pow(G, x, P)`` everywhere, Schnorr
verify through ``y^(Q - e)`` -- before any of it was replaced; every later
``repro.crypto.group`` / ``dh`` / ``signature`` must reproduce those bytes and
verdicts.  The replaced expressions live on here as the reference oracle.
"""

import importlib.util
import json
import pathlib
import secrets

import pytest

from repro.crypto import group
from repro.crypto.signature import Signature, VerifyKey
from repro.errors import InvalidSignature

HERE = pathlib.Path(__file__).parent
KAT = json.loads((HERE / "data" / "pk_kat.json").read_text())
P, Q, G = group.P, group.Q, group.G


def _load_script():
    path = HERE.parent.parent / "scripts" / "make_pk_kat.py"
    spec = importlib.util.spec_from_file_location("make_pk_kat", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


kat = _load_script()  # the label derivations and the scalar pin


def euler_is_group_element(x: int) -> bool:
    """The membership test as it was before the Jacobi symbol (the oracle)."""
    return 1 < x < P and pow(x, Q, P) == 1


def test_vectors_come_from_the_parent_commit():
    assert KAT["source"].endswith("commit ead9130")


# -- Diffie-Hellman -------------------------------------------------------------


@pytest.mark.parametrize("case", KAT["dh"], ids=lambda c: c["name"])
def test_dh_known_answer(case):
    """``DHKeyPair.generate`` under the pinned scalar: public-key bytes, and
    the shared-secret bytes against both fixed peers."""
    assert kat.dh_case(case["name"], int(case["private"], 16)) == case


# -- Schnorr --------------------------------------------------------------------


@pytest.mark.parametrize("case", KAT["schnorr"], ids=lambda c: c["name"])
def test_schnorr_known_answer(case):
    """Pinned key, pinned nonce: the exact verify-key and signature bytes."""
    regenerated = kat.schnorr_case(
        case["name"], int(case["key"], 16), int(case["nonce"], 16),
        bytes.fromhex(case["message"]),
    )
    assert regenerated == case


def _flip(value: int, label: str, bits: int) -> int:
    return value ^ 1 << kat.derived(label, 2) % bits


@pytest.mark.parametrize("case", KAT["schnorr"], ids=lambda c: c["name"])
def test_parent_signatures_verify_and_one_flipped_bit_does_not(case):
    message = bytes.fromhex(case["message"])
    key = VerifyKey.from_bytes(bytes.fromhex(case["verify_key"]))
    signature = Signature.from_bytes(bytes.fromhex(case["signature"]))
    key.verify(message, signature)  # the parent's bytes, the new verify

    name = case["name"]
    forgeries = [
        (key, message, Signature(_flip(signature.e, f"e:{name}", 256), signature.s)),
        (key, message, Signature(signature.e, _flip(signature.s, f"s:{name}", 2046))),
        (VerifyKey(_flip(key.value, f"key:{name}", 2048)), message, signature),
    ]
    if message:
        flipped = _flip(int.from_bytes(message, "big"), f"m:{name}", len(message) * 8)
        forgeries.append((key, flipped.to_bytes(len(message), "big"), signature))
    else:
        forgeries.append((key, b"\x00", signature))
    for forged_key, forged_message, forged_signature in forgeries:
        with pytest.raises(InvalidSignature):
            forged_key.verify(forged_message, forged_signature)


# -- RA-TLS ---------------------------------------------------------------------


@pytest.mark.parametrize("case", KAT["ratls"], ids=lambda c: c["name"])
def test_ratls_first_ciphertexts_known_answer(case):
    """Both directions' first ciphertext: pins every public key, quote
    signature, transcript and derived session key of the handshake at once."""
    assert kat.ratls_case(case["mutual"]) == case


# -- subgroup membership ----------------------------------------------------------


def test_membership_verdicts_match_the_parent():
    stored = KAT["membership"]
    assert stored["count"] == len(stored["seeded"]) >= 1000
    verdicts = "".join(
        "1" if group.is_group_element(kat.membership_value(i)) else "0"
        for i in range(stored["count"])
    )
    assert verdicts == stored["seeded"]
    assert 0.4 < verdicts.count("1") / len(verdicts) < 0.6  # both verdicts exercised

    edges = {int(value, 16): verdict for value, verdict in stored["edges"]}
    assert [x for x in kat.membership_edges() if x not in edges] == []
    for x in (0, 1, P - 1, P, P + 5, 2**4096, -1):
        assert edges[x] is False
    assert edges[2] and edges[G]
    non_residues = [x for x in range(2, 100) if not edges[x]]
    assert non_residues[:4] == [11, 13, 17, 22] and len(non_residues) == 41
    for x, verdict in edges.items():
        assert group.is_group_element(x) is verdict, hex(x)


def test_membership_agrees_with_euler_on_fresh_values():
    for i in range(40):
        x = secrets.randbits(2048 if i % 4 else 64 + 50 * i)
        if i % 2:
            x = x * x % P  # a residue for certain
        assert group.is_group_element(x) == euler_is_group_element(x), hex(x)


# -- the fixed-base comb for G ----------------------------------------------------


def test_g_pow_is_pow():
    exponents = [0, 1, 2, Q - 1, Q, Q + 1, P, -1, -Q, 1 << 4096]
    exponents += [1 << bit for bit in (*range(0, 2047, 89), 63, 64, 255, 256, 1791, 1792, 2046)]
    exponents += [secrets.randbelow(Q) for _ in range(20)]
    exponents += [secrets.randbits(bits) for bits in (8, 64, 65, 257, 1024)]
    for x in exponents:
        assert group.g_pow(x) == pow(G, x, P), hex(x)


def test_one_comb_table_per_process_of_1024_entries():
    table = group._comb_table()
    assert group._comb_table() is table
    assert isinstance(table, tuple) and len(table) == 1024
    assert table[0] == table[256] == 1 and table[1] == G
    assert table[257] == pow(G, 1 << 64, P)  # block 1 starts 64 columns up
    assert table[255] == pow(G, sum(1 << 256 * tooth for tooth in range(8)), P)
