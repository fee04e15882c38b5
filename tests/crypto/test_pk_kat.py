"""Known-answer vectors captured from the pre-rebuild public-key code (commit ead9130).

The DH, Schnorr and membership sections of ``data/pk_kat.json`` were written
by ``scripts/make_pk_kat.py`` running against ead9130 -- Euler-criterion
membership, ``pow(G, x, P)`` everywhere, Schnorr verify through ``y^(Q - e)``
-- before any of it was replaced; every later ``repro.crypto.group`` / ``dh``
/ ``signature`` must reproduce those bytes and verdicts, and a digest of each
section (recorded from commit 8bba941, before ephemeral DH keys became 256
bits) is asserted below.  Only the two RA-TLS first-ciphertext pairs were
regenerated then: they depend on *which* key a random source yields.  The
replaced expressions live on here as the reference oracle.
"""

import hashlib
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
    assert "PR 22" in KAT["ratls_source"]


#: sha256 of ``json.dumps(section, sort_keys=True, separators=(",", ":"))`` at
#: commit 8bba941, before any ``src/`` line of the 256-bit DH draw was written
SECTION_DIGESTS = {
    "dh": "bc42c352bb40f9a603364ff302f52f9a10fe7ad037c6a36c1668c45c63c3ca01",
    "schnorr": "8929a5f27210c1465873ae0043ebc0a43041be3711cc0eef7fbd9d7eb4a3d511",
    "membership": "ded4a0192dd21b54291e0889ab234521f3d3cdc054d2c6f7259dcfb733ccb11b",
}
#: the RA-TLS section at 8bba941: full-length ephemeral keys, replaced on purpose
OLD_RATLS_DIGEST = "96aa01791021bcfefb2399d6c1623b3ea1c359ca3fc6d0587cc39b4d345c1c14"


def section_digest(section) -> str:
    text = json.dumps(section, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SECTION_DIGESTS))
def test_function_vector_sections_are_the_parent_commits(name):
    """Short DH exponents changed which key is drawn, not what any function
    computes: these sections are byte-for-byte what they were."""
    assert section_digest(KAT[name]) == SECTION_DIGESTS[name]


def test_only_the_ratls_pairs_were_regenerated():
    assert section_digest(KAT["ratls"]) != OLD_RATLS_DIGEST
    assert {*KAT} == {"source", "ratls_source", "derivation", "ratls", *SECTION_DIGESTS}


# -- Diffie-Hellman -------------------------------------------------------------


@pytest.mark.parametrize("case", KAT["dh"], ids=lambda c: c["name"])
def test_dh_known_answer(case):
    """An explicit private exponent (most of them longer than anything
    ``DHKeyPair.generate`` draws now): public-key bytes, and the shared-secret
    bytes against both fixed full-length peers."""
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
    table = group._comb_table(256)
    assert group._comb_table(256) is table
    assert isinstance(table, tuple) and len(table) == 1024
    assert table[0] == table[256] == 1 and table[1] == G
    assert table[257] == pow(G, 1 << 64, P)  # block 1 starts 64 columns up
    assert table[255] == pow(G, sum(1 << 256 * tooth for tooth in range(8)), P)


def test_the_short_table_is_the_same_builder_at_a_32_bit_span():
    table = group._comb_table(32)
    assert group._comb_table(32) is table is not group._comb_table(256)
    assert isinstance(table, tuple) and len(table) == 1024
    assert table[0] == table[256] == 1 and table[1] == G
    assert table[257] == pow(G, 1 << 8, P)  # block 1 starts 8 columns up
    assert table[255] == pow(G, sum(1 << 32 * tooth for tooth in range(8)), P)
    assert group._comb_table.cache_info().currsize == 2
