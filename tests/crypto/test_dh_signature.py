"""Diffie-Hellman exchange and Schnorr signatures."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import group
from repro.crypto.dh import DHKeyPair, DHPublicKey, derive_session_key
from repro.crypto.signature import Signature, SigningKey, VerifyKey
from repro.errors import CryptoError, InvalidSignature


def test_group_parameters_consistent():
    # P is a safe prime: Q = (P-1)/2 must also make G an order-Q element.
    assert group.P == 2 * group.Q + 1
    assert pow(group.G, group.Q, group.P) == 1
    assert group.is_group_element(group.G)


def test_shared_secret_agreement():
    a, b = DHKeyPair.generate(), DHKeyPair.generate()
    assert a.shared_secret(b.public) == b.shared_secret(a.public)


def test_distinct_pairs_distinct_secrets():
    a, b, c = (DHKeyPair.generate() for _ in range(3))
    assert a.shared_secret(b.public) != a.shared_secret(c.public)


@pytest.mark.parametrize("bad", [0, 1, group.P - 1, group.P, group.P + 5])
def test_invalid_public_values_rejected(bad):
    with pytest.raises(CryptoError):
        DHPublicKey(bad)


def test_non_subgroup_element_rejected():
    # Find a quadratic non-residue: it lies outside the order-Q subgroup.
    non_residue = next(
        x for x in range(2, 100) if pow(x, group.Q, group.P) != 1
    )
    with pytest.raises(CryptoError):
        DHPublicKey(non_residue)


def test_session_key_depends_on_transcript():
    secret = b"shared"
    assert derive_session_key(secret, b"t1") != derive_session_key(secret, b"t2")


def test_session_key_size():
    assert len(derive_session_key(b"s", b"t", size=32)) == 32


def test_sign_verify_roundtrip():
    key = SigningKey.generate()
    signature = key.sign(b"message")
    key.verify_key.verify(b"message", signature)  # no exception


def test_signature_rejects_other_message():
    key = SigningKey.generate()
    signature = key.sign(b"message")
    with pytest.raises(InvalidSignature):
        key.verify_key.verify(b"other", signature)


def test_signature_rejects_other_key():
    signature = SigningKey.generate().sign(b"message")
    with pytest.raises(InvalidSignature):
        SigningKey.generate().verify_key.verify(b"message", signature)


def test_signature_rejects_tampered_scalars():
    key = SigningKey.generate()
    sig = key.sign(b"m")
    with pytest.raises(InvalidSignature):
        key.verify_key.verify(b"m", Signature(e=sig.e ^ 1, s=sig.s))
    with pytest.raises(InvalidSignature):
        key.verify_key.verify(b"m", Signature(e=sig.e, s=(sig.s + 1) % group.Q))


def test_signature_rejects_out_of_range_scalars():
    key = SigningKey.generate()
    sig = key.sign(b"m")
    with pytest.raises(InvalidSignature):
        key.verify_key.verify(b"m", Signature(e=group.Q, s=sig.s))


def test_signature_encoding_roundtrip():
    sig = SigningKey.generate().sign(b"m")
    assert Signature.from_bytes(sig.to_bytes()) == sig


def test_signature_encoding_rejects_bad_length():
    with pytest.raises(InvalidSignature):
        Signature.from_bytes(b"\x00" * 10)


def test_verify_key_encoding_roundtrip():
    vk = SigningKey.generate().verify_key
    assert VerifyKey.from_bytes(vk.to_bytes()) == vk


def _forge(y, message, e_must_be_even=False):
    """A signature satisfying ``H(g^s * y^-e || m) == e`` for ``y`` of order 1 or 2.

    No key is involved: pick ``s``, commit to ``r = g^s`` and take ``e`` from
    the hash.  ``y^-e`` is then 1 (for ``y = -1``, whenever ``e`` is even), so
    only the membership check stands between this and a valid signature.
    """
    while True:
        s = group.random_scalar()
        r = pow(group.G, s, group.P)
        digest = hashlib.sha256(group.element_to_bytes(r) + message).digest()
        e = int.from_bytes(digest, "big") % group.Q
        if not (e_must_be_even and e & 1):
            assert r * pow(pow(y, -1, group.P), e, group.P) % group.P == r
            return Signature(e=e, s=s)


@pytest.mark.parametrize("message", [b"m", b"any message at all"])
def test_identity_verify_key_rejected_although_the_equation_holds(message):
    with pytest.raises(InvalidSignature, match="not a valid group element"):
        VerifyKey(1).verify(message, _forge(1, message))


def test_order_two_verify_key_rejected_although_the_equation_holds():
    minus_one = group.P - 1
    forged = _forge(minus_one, b"m", e_must_be_even=True)
    with pytest.raises(InvalidSignature, match="not a valid group element"):
        VerifyKey(minus_one).verify(b"m", forged)


def test_invalid_verify_key_rejected():
    # 11 is the smallest quadratic non-residue (2 is a residue: P = 7 mod 8).
    # 0 and P have no inverse mod P and must be refused before one is asked
    # for: InvalidSignature, never pow()'s ValueError.
    assert pow(11, group.Q, group.P) != 1 and pow(2, group.Q, group.P) == 1
    sig = SigningKey.generate().sign(b"m")
    for bad in (11, 0, group.P, group.P + 5):
        with pytest.raises(InvalidSignature, match="not a valid group element"):
            VerifyKey(bad).verify(b"m", sig)


@settings(max_examples=5, deadline=None)
@given(message=st.binary(min_size=0, max_size=64))
def test_sign_verify_property(message):
    key = SigningKey.generate()
    key.verify_key.verify(message, key.sign(message))
