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
    # the signature group: SIG_G has the 256-bit prime order SIG_Q modulo SIG_P
    assert (group.SIG_P - 1) % group.SIG_Q == 0
    assert group.SIG_G != 1 and pow(group.SIG_G, group.SIG_Q, group.SIG_P) == 1


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
        key.verify_key.verify(b"m", Signature(e=sig.e, s=(sig.s + 1) % group.SIG_Q))


def test_signature_rejects_out_of_range_scalars():
    key = SigningKey.generate()
    sig = key.sign(b"m")
    for e, s in ((group.SIG_Q, sig.s), (sig.e, group.SIG_Q), (-1, sig.s), (sig.e, sig.s + group.SIG_Q)):
        with pytest.raises(InvalidSignature, match="scalars out of range"):
            key.verify_key.verify(b"m", Signature(e=e, s=s))


def test_signature_encoding_roundtrip():
    sig = SigningKey.generate().sign(b"m")
    assert len(sig.to_bytes()) == 64  # two 32-byte scalars, as an ECDSA-P256 quote carries
    assert Signature.from_bytes(sig.to_bytes()) == sig


def test_signature_encoding_rejects_bad_length():
    for size in (0, 10, 63, 65, 288):
        with pytest.raises(InvalidSignature):
            Signature.from_bytes(b"\x00" * size)


def test_verify_key_encoding_roundtrip():
    vk = SigningKey.generate().verify_key
    assert len(vk.to_bytes()) == 256
    assert VerifyKey.from_bytes(vk.to_bytes()) == vk
    for raw in (b"", vk.to_bytes()[1:], b"\x00" + vk.to_bytes()):
        with pytest.raises(InvalidSignature, match="malformed verify key"):
            VerifyKey.from_bytes(raw)


SIG_P, SIG_Q, SIG_G = group.SIG_P, group.SIG_Q, group.SIG_G
#: in range but outside the order-SIG_Q subgroup: 2 if it is one, else the first small integer that is
NON_MEMBER = next(x for x in range(2, 100) if pow(x, SIG_Q, SIG_P) != 1)


def _forge(y, message, order):
    """A signature satisfying ``H(g^s * y^-e || m) == e`` for ``y`` of small ``order``.

    No key is involved: pick ``s``, commit to ``r = g^s`` and take ``e`` from
    the hash.  ``y^-e`` is 1 whenever ``order`` divides ``e`` (about one try in
    ``order``), so only the membership check stands between this and a valid
    signature.
    """
    assert y != SIG_G and pow(y, order, SIG_P) == 1
    while True:
        s = group.random_sig_scalar()
        r = pow(SIG_G, s, SIG_P)
        digest = hashlib.sha256(group.element_to_bytes(r) + message).digest()
        e = int.from_bytes(digest, "big") % SIG_Q
        if e % order == 0:
            assert r * pow(pow(y, -1, SIG_P), e, SIG_P) % SIG_P == r
            return Signature(e=e, s=s)


def _refused_by_membership_alone(key: VerifyKey, message: bytes, forged: Signature):
    """The forged signature passes every check after membership -- scalar
    ranges, commitment, challenge -- so membership is what refuses it."""
    assert 0 <= forged.e < SIG_Q and 0 <= forged.s < SIG_Q
    r = pow(SIG_G, forged.s, SIG_P) * pow(key.value, -forged.e, SIG_P) % SIG_P
    digest = hashlib.sha256(group.element_to_bytes(r) + message).digest()
    assert int.from_bytes(digest, "big") % SIG_Q == forged.e
    with pytest.raises(InvalidSignature, match="not a valid group element"):
        key.verify(message, forged)


@pytest.mark.parametrize("message", [b"m", b"any message at all"])
def test_identity_verify_key_rejected_although_the_equation_holds(message):
    _refused_by_membership_alone(VerifyKey(1), message, _forge(1, message, order=1))


def test_order_two_verify_key_rejected_although_the_equation_holds():
    minus_one = SIG_P - 1
    _refused_by_membership_alone(VerifyKey(minus_one), b"m", _forge(minus_one, b"m", order=2))


def small_odd_order_element():
    """``(y, r)``: ``y`` of odd prime order ``r`` dividing the cofactor.

    ``SIG_P - 1 = 2 * SIG_Q * cofactor`` and the cofactor, unlike a safe
    prime's (which is 1), has small odd factors; trial division finds one and
    ``h^((SIG_P - 1) / r)`` for the first ``h`` that does not land on 1 has
    exactly that order.
    """
    cofactor = (SIG_P - 1) // (2 * SIG_Q)
    r = next(r for r in range(3, 10_000, 2) if cofactor % r == 0)
    y = next(y for h in range(2, 100) if (y := pow(h, (SIG_P - 1) // r, SIG_P)) != 1)
    return y, r


def test_small_odd_order_verify_key_rejected_although_the_equation_holds():
    """The case a safe prime never had: a key of order 3 (or the cofactor's
    smallest odd prime) is in range, is not 1 or -1, and satisfies the Schnorr
    equation for one ``e`` in ``r``."""
    y, r = small_odd_order_element()
    assert r % 2 == 1 and 1 < y < SIG_P - 1 and pow(y, r, SIG_P) == 1
    assert pow(y, SIG_Q, SIG_P) != 1  # outside the order-SIG_Q subgroup
    for message in (b"m", b"any message at all"):
        _refused_by_membership_alone(VerifyKey(y), message, _forge(y, message, order=r))


def test_invalid_verify_key_rejected():
    # 0 and SIG_P have no inverse mod SIG_P and must be refused before one is
    # asked for: InvalidSignature, never pow()'s ValueError.
    sig = SigningKey.generate().sign(b"m")
    for bad in (0, 1, SIG_P - 1, SIG_P, SIG_P + 5, NON_MEMBER):
        with pytest.raises(InvalidSignature, match="not a valid group element"):
            VerifyKey(bad).verify(b"m", sig)
    # the DH group's generator and modulus mean nothing here
    for bad in (group.G, group.P):
        with pytest.raises(InvalidSignature, match="not a valid group element"):
            VerifyKey(bad).verify(b"m", sig)


def test_checks_run_in_order_membership_first():
    """Key range, membership, scalar ranges, commitment / challenge: a key
    outside the subgroup is named even when the scalars are also out of range,
    and out-of-range scalars are named before the equation is tried."""
    key = SigningKey.generate()
    sig = key.sign(b"m")
    out_of_range = Signature(e=SIG_Q, s=SIG_Q)
    with pytest.raises(InvalidSignature, match="not a valid group element"):
        VerifyKey(NON_MEMBER).verify(b"m", out_of_range)
    with pytest.raises(InvalidSignature, match="scalars out of range"):
        key.verify_key.verify(b"m", out_of_range)
    with pytest.raises(InvalidSignature, match="Schnorr verification failed"):
        key.verify_key.verify(b"other", sig)


@settings(max_examples=5, deadline=None)
@given(message=st.binary(min_size=0, max_size=64))
def test_sign_verify_property(message):
    key = SigningKey.generate()
    key.verify_key.verify(message, key.sign(message))
