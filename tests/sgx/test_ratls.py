"""RA-TLS handshakes and secure channels, including MITM scenarios."""

import secrets

import pytest

from repro.crypto import group
from repro.crypto.dh import DHKeyPair, DHPublicKey
from repro.errors import AttestationError, CryptoError, InvalidTag
from repro.sgx.attestation import AttestationService, QuotePolicy
from repro.sgx.enclave import EnclaveBuildConfig, EnclaveCode
from repro.sgx.platform import SGX2, SgxPlatform
from repro.sgx.ratls import (
    HandshakeOffer,
    RatlsPeer,
    check_offer,
    complete_handshake,
    perform_handshake,
    quote_from_wire,
    quote_to_wire,
    respond_handshake,
)

MB = 1024 * 1024


class Service(EnclaveCode):
    pass


@pytest.fixture()
def setup():
    attestation = AttestationService()
    platform = SgxPlatform(SGX2, attestation_service=attestation)
    enclave = platform.create_enclave(Service(), EnclaveBuildConfig(memory_bytes=MB))
    return attestation, platform, enclave


def attested_peer(name, enclave, platform):
    return RatlsPeer(name, enclave=enclave, quoter=platform.quote)


def test_plain_handshake_channel(setup):
    client, server = RatlsPeer("c"), RatlsPeer("s")
    c, s = perform_handshake(client, server)
    assert s.recv(c.send(b"hello")) == b"hello"
    assert c.recv(s.send(b"world")) == b"world"


def test_one_way_attested_handshake(setup):
    attestation, platform, enclave = setup
    client = RatlsPeer("client")
    server = attested_peer("server", enclave, platform)
    c, s = perform_handshake(
        client, server, attestation,
        client_requires=QuotePolicy(expected_mrenclave=enclave.measurement),
    )
    assert s.recv(c.send(b"register")) == b"register"


def test_mutual_attested_handshake(setup):
    attestation, platform, enclave = setup
    other = platform.create_enclave(Service(), EnclaveBuildConfig(memory_bytes=2 * MB))
    client = attested_peer("semirt", enclave, platform)
    server = attested_peer("keyservice", other, platform)
    c, s = perform_handshake(
        client, server, attestation,
        client_requires=QuotePolicy(expected_mrenclave=other.measurement),
        server_requires=QuotePolicy(expected_mrenclave=enclave.measurement),
    )
    assert s.recv(c.send(b"provision")) == b"provision"


def test_missing_quote_rejected(setup):
    attestation, platform, enclave = setup
    client, server = RatlsPeer("c"), RatlsPeer("s")  # server unattested
    with pytest.raises(AttestationError, match="no quote"):
        perform_handshake(
            client, server, attestation,
            client_requires=QuotePolicy(),
        )


def test_wrong_identity_rejected(setup):
    attestation, platform, enclave = setup
    client = RatlsPeer("client")
    server = attested_peer("server", enclave, platform)
    wrong = "ef" * 32
    from repro.sgx.measurement import EnclaveMeasurement

    with pytest.raises(AttestationError):
        perform_handshake(
            client, server, attestation,
            client_requires=QuotePolicy(expected_mrenclave=EnclaveMeasurement(wrong)),
        )


def test_quote_splice_mitm_rejected(setup):
    """An attacker cannot graft a genuine quote onto its own DH key."""
    attestation, platform, enclave = setup
    server = attested_peer("server", enclave, platform)
    genuine_offer = server.offer()
    mitm_key = DHKeyPair.generate()
    spliced = HandshakeOffer(dh_public=mitm_key.public, quote=genuine_offer.quote)
    client = RatlsPeer("client")
    client_offer = client.offer()
    with pytest.raises(AttestationError, match="bind"):
        complete_handshake(
            client, client_offer, spliced, attestation,
            client_requires=QuotePolicy(expected_mrenclave=enclave.measurement),
        )


def test_channel_rejects_replay(setup):
    c, s = perform_handshake(RatlsPeer("c"), RatlsPeer("s"))
    wire = c.send(b"one")
    s.recv(wire)
    with pytest.raises(InvalidTag):
        s.recv(wire)


def test_channel_rejects_reorder(setup):
    c, s = perform_handshake(RatlsPeer("c"), RatlsPeer("s"))
    first, second = c.send(b"one"), c.send(b"two")
    with pytest.raises(InvalidTag):
        s.recv(second)


def test_channel_rejects_reflection(setup):
    """A message cannot be reflected back to its sender (direction keys)."""
    c, s = perform_handshake(RatlsPeer("c"), RatlsPeer("s"))
    wire = c.send(b"one")
    with pytest.raises(InvalidTag):
        c.recv(wire)


def test_channel_rejects_tampering(setup):
    c, s = perform_handshake(RatlsPeer("c"), RatlsPeer("s"))
    wire = bytearray(c.send(b"payload"))
    wire[0] ^= 1
    with pytest.raises(InvalidTag):
        s.recv(bytes(wire))


def test_channels_are_independent(setup):
    c1, s1 = perform_handshake(RatlsPeer("c"), RatlsPeer("s"))
    c2, s2 = perform_handshake(RatlsPeer("c"), RatlsPeer("s"))
    with pytest.raises(InvalidTag):
        s2.recv(c1.send(b"cross-channel"))


def test_offer_wire_roundtrip(setup):
    attestation, platform, enclave = setup
    peer = attested_peer("p", enclave, platform)
    offer = peer.offer()
    restored = HandshakeOffer.from_wire(offer.to_wire())
    assert restored.dh_public == offer.dh_public
    assert restored.quote == offer.quote


def test_offer_wire_malformed_rejected():
    with pytest.raises(AttestationError):
        HandshakeOffer.from_wire({"nonsense": 1})


def test_shared_secret_requires_offer_first():
    peer = RatlsPeer("p")
    other = RatlsPeer("o")
    other_offer = other.offer()
    with pytest.raises(CryptoError):
        peer.shared_secret(other_offer)


def test_the_ephemeral_key_derives_one_secret():
    """The private exponent is dropped with the first secret: a second
    derivation from the same offer is refused, not repeated."""
    peer, other = RatlsPeer("p"), RatlsPeer("o")
    peer.offer()
    other_offer = other.offer()
    assert len(peer.shared_secret(other_offer)) == 256
    assert peer._keypair is None
    with pytest.raises(CryptoError, match="one secret"):
        peer.shared_secret(other_offer)


def test_every_offer_draws_a_fresh_key():
    peer, other = RatlsPeer("p"), RatlsPeer("o")
    first, second = peer.offer(), peer.offer()
    assert first.dh_public != second.dh_public
    # the live key is the latest offer's
    assert peer.shared_secret(other.offer()) == other.shared_secret(second)
    third = peer.offer()  # and a consumed peer can offer again
    assert third.dh_public not in (first.dh_public, second.dh_public)


def test_handshakes_still_complete_on_reused_peers(setup):
    """respond / complete / perform each consume exactly the key they drew."""
    attestation, platform, enclave = setup
    client, server = RatlsPeer("client"), attested_peer("server", enclave, platform)
    policy = QuotePolicy(expected_mrenclave=enclave.measurement)
    for _ in range(2):  # the same peer objects, two whole handshakes
        c, s = perform_handshake(client, server, attestation, client_requires=policy)
        assert s.recv(c.send(b"again")) == b"again"
    offer = client.offer()
    server_offer, s, _ = respond_handshake(server, offer, attestation)
    c = complete_handshake(client, offer, server_offer, attestation, client_requires=policy)
    assert c.recv(s.send(b"halves")) == b"halves"
    with pytest.raises(CryptoError):  # the client's key went into that channel
        complete_handshake(client, offer, server_offer, attestation, client_requires=policy)


def full_length_scalar() -> int:
    return secrets.randbelow(group.Q - 1) + 1 | 1 << 2040


def full_length_pair() -> DHKeyPair:
    """A key pair as every peer drew them before PR 22: private in ``[1, Q)``."""
    private = full_length_scalar()
    return DHKeyPair(private=private, public=DHPublicKey(pow(group.G, private, group.P)))


def test_short_and_full_length_exponents_agree_on_the_secret():
    short, full = DHKeyPair.generate(), full_length_pair()
    assert short.private.bit_length() <= 256 < 2040 < full.private.bit_length()
    secret = short.shared_secret(full.public)
    assert secret == full.shared_secret(short.public)
    assert secret == group.element_to_bytes(
        pow(group.G, short.private * full.private, group.P)
    )


def test_mutual_handshake_with_a_full_length_peer(setup, monkeypatch):
    """A peer that still draws full-length exponents interoperates unchanged."""
    attestation, platform, enclave = setup
    other = platform.create_enclave(Service(), EnclaveBuildConfig(memory_bytes=2 * MB))
    client = attested_peer("old-semirt", enclave, platform)
    server = attested_peer("keyservice", other, platform)
    with monkeypatch.context() as patch:
        # the peer's own comb would refuse the exponent: it computes g^x its own way
        patch.setattr(group, "random_short_scalar", full_length_scalar)
        patch.setattr(group, "g_pow", lambda x: pow(group.G, x, group.P))
        client_offer = client.offer()
    assert client._keypair.private.bit_length() > 2040
    server_offer, s, report = respond_handshake(
        server, client_offer, attestation,
        server_requires=QuotePolicy(expected_mrenclave=enclave.measurement),
    )
    assert report.mrenclave == enclave.measurement
    c = complete_handshake(
        client, client_offer, server_offer, attestation,
        client_requires=QuotePolicy(expected_mrenclave=other.measurement),
    )
    assert s.recv(c.send(b"provision")) == b"provision"
    assert c.recv(s.send(b"keys")) == b"keys"


@pytest.mark.parametrize(
    "bad", [1, group.P - 1, 0, group.P, group.P + 5, 11],
    ids=["identity", "order-two", "zero", "P", "P+5", "non-residue"],
)
def test_offer_with_a_peer_key_outside_the_subgroup_is_refused(bad):
    """What makes a 256-bit exponent sound on this group: no received key is
    ever raised to it unless it is in the order-Q subgroup."""
    with pytest.raises(CryptoError, match="not a valid group element"):
        HandshakeOffer.from_wire({"dh_public": bad.to_bytes(256, "big")})


@pytest.mark.parametrize("signature", [b"", b"\x00" * 10, b"\x00" * 63, b"\x00" * 65])
def test_quote_with_a_wrong_length_signature_is_a_malformed_quote(setup, signature):
    _, platform, enclave = setup
    wire = quote_to_wire(attested_peer("p", enclave, platform).offer().quote)
    assert quote_from_wire(wire).signature.to_bytes() == wire["signature"]
    with pytest.raises(AttestationError, match="malformed quote on the wire"):
        quote_from_wire({**wire, "signature": signature})


MALFORMED_QUOTE_FIELDS = [
    ("platform_id", []), ("platform_id", {}), ("platform_id", None), ("platform_id", b"node"),
    ("report_data", [0] * 64), ("report_data", "0" * 64), ("report_data", b"\x00" * 63),
    ("signature", [0] * 64), ("signature", "0" * 64), ("signature", None),
    ("mrenclave", ["a"] * 64), ("mrenclave", b"a" * 64), ("kind", []), ("kind", "tpm"),
    ("isv_svn", "1"), ("isv_svn", 1.5), ("isv_svn", True), ("debug", 0), ("debug", None),
]


@pytest.mark.parametrize(
    "field, value", MALFORMED_QUOTE_FIELDS,
    ids=[f"{field}={value!r:.10}" for field, value in MALFORMED_QUOTE_FIELDS],
)
def test_a_malformed_quote_never_reaches_the_verifier(setup, field, value):
    """Decode, then ``check_offer``, as both handshake halves do: a field of
    the wrong type or width is refused at the decoder as ``AttestationError``
    -- ``platform_id: []`` used to reach the root lookup and leave as a raw
    ``TypeError`` -- and the attestation service is never asked."""
    attestation, platform, enclave = setup
    wire = attested_peer("p", enclave, platform).offer().to_wire()
    policy = QuotePolicy(expected_mrenclave=enclave.measurement)
    assert check_offer(HandshakeOffer.from_wire(wire), policy, attestation, "peer") is not None
    asked = attestation.verifications
    with pytest.raises(AttestationError, match="malformed quote on the wire"):
        bad = {**wire, "quote": {**wire["quote"], field: value}}
        check_offer(HandshakeOffer.from_wire(bad), policy, attestation, "peer")
    assert attestation.verifications == asked


@pytest.mark.parametrize("raw", [None, "4" * 256, [4] * 256, b"", b"\x04" * 255, b"\x00" + b"\x04" * 256])
def test_a_dh_public_of_the_wrong_type_or_width_is_a_malformed_offer(raw):
    with pytest.raises(AttestationError, match="malformed handshake offer"):
        HandshakeOffer.from_wire({"dh_public": raw})


def test_attested_peer_needs_both_enclave_and_quoter(setup):
    _, platform, enclave = setup
    with pytest.raises(ValueError):
        RatlsPeer("bad", enclave=enclave)


def test_respond_handshake_returns_client_report(setup):
    attestation, platform, enclave = setup
    client = attested_peer("client", enclave, platform)
    server = RatlsPeer("server-plain")
    offer = client.offer()
    _, _, report = respond_handshake(
        server, offer, attestation, server_requires=QuotePolicy()
    )
    assert report is not None
    assert report.mrenclave == enclave.measurement


def test_respond_handshake_unattested_client_gives_no_report(setup):
    server = RatlsPeer("server")
    offer = RatlsPeer("client").offer()
    _, _, report = respond_handshake(server, offer)
    assert report is None
