"""Known-answer vectors for the public-key code.

The DH and membership sections of ``data/pk_kat.json`` were written by
``scripts/make_pk_kat.py`` running against commit ead9130 -- Euler-criterion
membership, ``pow(G, x, P)`` everywhere -- before any of it was replaced;
every later ``repro.crypto.group`` / ``dh`` must reproduce those bytes and
verdicts, and a digest of each section (recorded from commit 8bba941) is
asserted below.  The Schnorr section was regenerated on purpose in PR 23,
when quote signatures moved to the 256-bit-order group ``(SIG_P, SIG_Q,
SIG_G)``: same twelve cases, and its digest is asserted from that commit on.
The two RA-TLS first-ciphertext pairs carry quote signatures and so moved with
it.  The replaced expressions -- and the textbook Schnorr equation through the
built-in ``pow`` -- live on here as the reference oracle.
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
SIG_P, SIG_Q, SIG_G = group.SIG_P, group.SIG_Q, group.SIG_G


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
    assert "PR 23" in KAT["schnorr_source"]
    assert "PR 23" in KAT["ratls_source"] and "PR 22" in KAT["ratls_source"]


#: sha256 of ``json.dumps(section, sort_keys=True, separators=(",", ":"))``: the
#: DH and membership sections at commit 8bba941 (ead9130's bytes), the Schnorr
#: section as PR 23 regenerated it on the (2048, 256) group
SECTION_DIGESTS = {
    "dh": "bc42c352bb40f9a603364ff302f52f9a10fe7ad037c6a36c1668c45c63c3ca01",
    "schnorr": "b463438af916009f22b798ff06d0e0e64af214c66c50ee298f7ee488a9faf51f",
    "membership": "ded4a0192dd21b54291e0889ab234521f3d3cdc054d2c6f7259dcfb733ccb11b",
}
#: what PR 23 replaced on purpose: signatures in the 2047-bit-order subgroup
OLD_SCHNORR_DIGEST = "8929a5f27210c1465873ae0043ebc0a43041be3711cc0eef7fbd9d7eb4a3d511"
OLD_RATLS_DIGESTS = {
    "96aa01791021bcfefb2399d6c1623b3ea1c359ca3fc6d0587cc39b4d345c1c14",  # before PR 22
    "648f79eb07b0a0dca39d0941cebaacaee10bb3e5cf76b821a81f1ba9d564e416",  # before PR 23
}


def section_digest(section) -> str:
    text = json.dumps(section, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SECTION_DIGESTS))
def test_function_vector_sections_are_the_parent_commits(name):
    """Moving signatures to their own group changed nothing DH or membership
    computes: those sections are byte-for-byte ead9130's.  The Schnorr
    section is pinned to the one regeneration that moved it."""
    assert section_digest(KAT[name]) == SECTION_DIGESTS[name]


def test_only_the_schnorr_and_ratls_sections_were_regenerated():
    assert SECTION_DIGESTS["schnorr"] != OLD_SCHNORR_DIGEST
    assert section_digest(KAT["ratls"]) not in OLD_RATLS_DIGESTS
    assert {*KAT} == {
        "source", "schnorr_source", "ratls_source", "derivation", "ratls", *SECTION_DIGESTS
    }


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
    """Pinned key, pinned nonce: the exact verify-key and signature bytes,
    and those bytes are textbook Schnorr through the built-in ``pow``."""
    key, nonce = int(case["key"], 16), int(case["nonce"], 16)
    message = bytes.fromhex(case["message"])
    assert kat.schnorr_case(case["name"], key, nonce, message) == case

    assert 1 <= key < SIG_Q and 1 <= nonce < SIG_Q
    commitment = group.element_to_bytes(pow(SIG_G, nonce, SIG_P))
    e = int.from_bytes(hashlib.sha256(commitment + message).digest(), "big") % SIG_Q
    s = (nonce + key * e) % SIG_Q
    assert case["signature"] == (e.to_bytes(32, "big") + s.to_bytes(32, "big")).hex()
    assert case["verify_key"] == group.element_to_bytes(pow(SIG_G, key, SIG_P)).hex()


def _flip(value: int, label: str, bits: int) -> int:
    return value ^ 1 << kat.derived(label, 2) % bits


@pytest.mark.parametrize("case", KAT["schnorr"], ids=lambda c: c["name"])
def test_parent_signatures_verify_and_one_flipped_bit_does_not(case):
    message = bytes.fromhex(case["message"])
    key = VerifyKey.from_bytes(bytes.fromhex(case["verify_key"]))
    signature = Signature.from_bytes(bytes.fromhex(case["signature"]))
    key.verify(message, signature)  # the committed bytes, the verify on the path
    # and the textbook equation agrees: g^s * y^(q - e) hashes back to e
    r = pow(SIG_G, signature.s, SIG_P) * pow(key.value, SIG_Q - signature.e, SIG_P) % SIG_P
    digest = hashlib.sha256(group.element_to_bytes(r) + message).digest()
    assert int.from_bytes(digest, "big") % SIG_Q == signature.e

    name = case["name"]
    forgeries = [
        (key, message, Signature(_flip(signature.e, f"e:{name}", 256), signature.s)),
        (key, message, Signature(signature.e, _flip(signature.s, f"s:{name}", 256))),
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


# -- the fixed-base comb ------------------------------------------------------------


def test_g_pow_is_pow():
    exponents = [0, 1, 2, SIG_Q - 1, SIG_Q, SIG_Q + 1, (1 << 256) - 1]
    exponents += [1 << bit for bit in (*range(0, 256, 11), 31, 32, 63, 64, 255)]
    exponents += [secrets.randbits(256) for _ in range(20)]
    exponents += [secrets.randbits(bits) for bits in (8, 64, 65, 129, 255)]
    for x in exponents:
        assert group.g_pow(x) == pow(G, x, P), hex(x)
        assert group.sig_g_pow(x) == pow(SIG_G, x, SIG_P), hex(x)
    for x in (-1, 1 << 256, Q - 1, Q, 1 << 4096):
        with pytest.raises(ValueError, match="outside"):
            group.g_pow(x)


def test_one_comb_table_per_process_of_1024_entries():
    """``G``'s table: one object however often it is asked for, 8 teeth of 32
    bits in 4 blocks -- the only geometry there is."""
    table = group.g_pow.__self__.table
    assert group.g_pow.__self__.table is table
    assert isinstance(table, tuple) and len(table) == 1024
    assert table[0] == table[256] == 1 and table[1] == G
    assert table[257] == pow(G, 1 << 8, P)  # block 1 starts 8 columns up
    assert table[255] == pow(G, sum(1 << 32 * tooth for tooth in range(8)), P)


def test_the_short_table_is_the_same_builder_at_a_32_bit_span():
    """Every fixed base -- ``G``, ``SIG_G``, the inverse of a verify key --
    is one ``FixedBase``: same class, same geometry, its own base and modulus."""
    key = VerifyKey(pow(SIG_G, 5, SIG_P))
    inverse = pow(key.value, -1, SIG_P)
    bases = {
        group.g_pow.__self__: (G, P),
        group.sig_g_pow.__self__: (SIG_G, SIG_P),
        key._inverse: (inverse, SIG_P),
    }
    for fixed, (base, modulus) in bases.items():
        assert type(fixed) is group.FixedBase
        assert (fixed.base, fixed.modulus) == (base, modulus)
        table = fixed.table
        assert fixed.table is table and len(table) == 1024
        assert table[0] == table[256] == 1 and table[1] == base
        assert table[257] == pow(base, 1 << 8, modulus)
        assert table[255] == pow(base, sum(1 << 32 * tooth for tooth in range(8)), modulus)
    assert key._inverse is key._inverse  # the root's table lives with its key object
