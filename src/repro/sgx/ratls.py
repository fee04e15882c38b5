"""RA-TLS: attested secure channels (Knauth et al., as used by SeSeMI).

The handshake is an ephemeral Diffie-Hellman exchange in which either or
both sides present an attestation quote whose ``report_data`` binds the
hash of their handshake public key.  Verifying the quote therefore proves
that the *channel itself* terminates inside the attested enclave -- there
is no way to splice a man-in-the-middle between the attested identity and
the session keys.

Three configurations appear in SeSeMI:

- owner/user -> KeyService: one-way attestation (the client checks the
  KeyService enclave identity ``E_K``);
- SeMIRT -> KeyService: mutual attestation (KeyService checks the SeMIRT
  identity ``E_S`` before provisioning keys, and SeMIRT checks ``E_K``);
- user -> FnPacker: no attestation, payloads are independently encrypted.

The handshake is split into message-level halves
(:func:`respond_handshake` / :func:`complete_handshake`) so the server
side can run *inside* an enclave ECALL, with quotes fetched through an
OCALL -- exactly the structure of the paper's implementation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.crypto.dh import DHKeyPair, DHPublicKey, derive_session_key
from repro.crypto.gcm import AESGCM
from repro.crypto.hashes import sha256
from repro.crypto.signature import Signature
from repro.errors import AttestationError, CryptoError, InvalidSignature
from repro.sgx.attestation import (
    REPORT_DATA_SIZE,
    AttestationKind,
    AttestationService,
    Quote,
    QuotePolicy,
    Report,
)
from repro.sgx.enclave import Enclave, Kind
from repro.sgx.measurement import EnclaveMeasurement

_channel_ids = itertools.count(1)

#: something that turns a report into a quote (a platform, or an OCALL)
Quoter = Callable[[Report], Quote]


def quote_to_wire(quote: Quote) -> dict:
    """Encode a quote for transport."""
    report = quote.report
    return {
        "kind": quote.kind.value,
        "mrenclave": report.mrenclave.value,
        "isv_svn": report.isv_svn,
        "debug": report.debug,
        "report_data": report.report_data,
        "platform_id": report.platform_id,
        "signature": quote.signature.to_bytes(),
    }


#: a quote's transport form: the sender is untrusted, so every field's type
#: and width is checked before anything hashes, packs or looks one up
_QUOTE_WIRE = Kind(dict, error=AttestationError, fields={
    "kind": Kind(str), "mrenclave": Kind(str), "isv_svn": Kind(int), "debug": Kind(bool),
    "report_data": Kind(bytes, least=REPORT_DATA_SIZE, most=REPORT_DATA_SIZE),
    "platform_id": Kind(str), "signature": Kind(bytes)})
#: a handshake offer's transport form (its quote, if any, is a _QUOTE_WIRE)
_OFFER_WIRE = Kind(dict, error=AttestationError, fields={
    "dh_public": Kind(bytes, least=256, most=256)})
#: what a quoting OCALL must hand back: a quote, never a downgrade to none
QUOTE = Kind(Quote, error=AttestationError)


def quote_from_wire(data: dict) -> Quote:
    """Decode a quote from transport form (checked against ``_QUOTE_WIRE``)."""
    _QUOTE_WIRE.check(data, "malformed quote on the wire")
    plain = {name: data[name] for name in ("isv_svn", "debug", "report_data", "platform_id")}
    try:
        report = Report(mrenclave=EnclaveMeasurement(data["mrenclave"]), **plain)
        return Quote(report, AttestationKind(data["kind"]), Signature.from_bytes(data["signature"]))
    except (ValueError, InvalidSignature) as exc:
        raise AttestationError(f"malformed quote on the wire: {exc}") from exc


@dataclass(frozen=True)
class HandshakeOffer:
    """One side's handshake flight: DH public key plus optional quote."""

    dh_public: DHPublicKey
    quote: Optional[Quote] = None

    def transcript_bytes(self) -> bytes:
        """Canonical bytes of this flight for the key-derivation transcript."""
        quote_part = b""
        if self.quote is not None:
            quote_part = self.quote.signed_payload() + self.quote.signature.to_bytes()
        return self.dh_public.to_bytes() + quote_part

    def to_wire(self) -> dict:
        """Wire-friendly dict form of the offer."""
        payload: dict = {"dh_public": self.dh_public.to_bytes()}
        if self.quote is not None:
            payload["quote"] = quote_to_wire(self.quote)
        return payload

    @classmethod
    def from_wire(cls, data: dict) -> "HandshakeOffer":
        raw = _OFFER_WIRE.check(data, "malformed handshake offer")["dh_public"]
        public = DHPublicKey(int.from_bytes(raw, "big"))
        quote = quote_from_wire(data["quote"]) if "quote" in data else None
        return cls(dh_public=public, quote=quote)


class RatlsPeer:
    """A handshake participant; attested when backed by an enclave."""

    def __init__(
        self,
        name: str,
        enclave: Optional[Enclave] = None,
        quoter: Optional[Quoter] = None,
    ) -> None:
        if (enclave is None) != (quoter is None):
            raise ValueError("attested peers need both an enclave and a quoter")
        self.name = name
        self._enclave = enclave
        self._quoter = quoter
        self._keypair: Optional[DHKeyPair] = None

    def offer(self) -> HandshakeOffer:
        """Generate the handshake flight (fresh DH key, quote if attested)."""
        self._keypair = DHKeyPair.generate()
        quote = None
        if self._enclave is not None and self._quoter is not None:
            binding = sha256(self._keypair.public.to_bytes())
            report = self._enclave.get_report(binding)
            quote = self._quoter(report)
        return HandshakeOffer(dh_public=self._keypair.public, quote=quote)

    def shared_secret(self, peer_offer: HandshakeOffer) -> bytes:
        """Raw DH secret against the peer's offer; consumes the ephemeral key.

        ``offer()`` must come first, and each offer derives one secret: the
        private exponent is dropped here, so a second call raises.
        """
        keypair, self._keypair = self._keypair, None
        if keypair is None:
            raise CryptoError(
                "no ephemeral key: offer() must come first, and a key derives one secret"
            )
        return keypair.shared_secret(peer_offer.dh_public)


def check_offer(
    offer: HandshakeOffer,
    policy: Optional[QuotePolicy],
    verifier: Optional[AttestationService],
    peer_label: str,
) -> Optional[Report]:
    """Verify the peer's quote against ``policy``; returns the report.

    With ``policy=None`` the peer is accepted unattested and ``None`` is
    returned.  On success the report's ``report_data`` is checked to bind
    the peer's handshake key, defeating quote-splicing MITM attacks.
    """
    if policy is None:
        return None
    if offer.quote is None:
        raise AttestationError(f"{peer_label} presented no quote but one is required")
    if verifier is None:
        raise AttestationError("an attestation service is required to verify quotes")
    report = verifier.verify(offer.quote, policy)
    expected_binding = sha256(offer.dh_public.to_bytes()).ljust(64, b"\x00")
    if report.report_data != expected_binding:
        raise AttestationError(
            f"{peer_label} quote does not bind the handshake key "
            "(possible man-in-the-middle)"
        )
    return report


class SecureChannel:
    """One end of an established RA-TLS channel.

    Messages are AES-GCM sealed with per-direction keys and strictly
    increasing counters used as nonces, so replayed, reordered, or
    cross-direction-reflected ciphertexts fail authentication.
    """

    def __init__(self, send_key: bytes, recv_key: bytes, label: str) -> None:
        self._send = AESGCM(send_key)
        self._recv = AESGCM(recv_key)
        self._send_seq = 0
        self._recv_seq = 0
        self.label = label

    @staticmethod
    def _nonce(seq: int) -> bytes:
        return seq.to_bytes(12, "big")

    def send(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt ``plaintext`` into a wire message."""
        wire = self._send.encrypt(self._nonce(self._send_seq), plaintext, aad)
        self._send_seq += 1
        return wire

    def recv(self, wire: bytes, aad: bytes = b"") -> bytes:
        """Authenticate and decrypt the next in-order wire message."""
        plaintext = self._recv.decrypt(self._nonce(self._recv_seq), wire, aad)
        self._recv_seq += 1
        return plaintext


def _derive_pair(
    secret: bytes, transcript: bytes, label: str
) -> Tuple[bytes, bytes]:
    """(c2s, s2c) session keys for one side."""
    return (
        derive_session_key(secret, transcript + b"c2s"),
        derive_session_key(secret, transcript + b"s2c"),
    )


def respond_handshake(
    server: RatlsPeer,
    client_offer: HandshakeOffer,
    verifier: Optional[AttestationService] = None,
    server_requires: Optional[QuotePolicy] = None,
) -> Tuple[HandshakeOffer, SecureChannel, Optional[Report]]:
    """Server half: verify the client, reply, derive the server channel end.

    Returns ``(server_offer, server_channel, client_report)`` where
    ``client_report`` is the verified client report (``None`` when the
    client is unattested).  This is what runs *inside* KeyService.
    """
    client_report = check_offer(
        client_offer, server_requires, verifier, f"client of {server.name!r}"
    )
    server_offer = server.offer()
    transcript = client_offer.transcript_bytes() + server_offer.transcript_bytes()
    secret = server.shared_secret(client_offer)
    c2s, s2c = _derive_pair(secret, transcript, server.name)
    channel = SecureChannel(
        send_key=s2c,
        recv_key=c2s,
        label=f"ratls-{next(_channel_ids)}:{server.name}",
    )
    return server_offer, channel, client_report


def complete_handshake(
    client: RatlsPeer,
    client_offer: HandshakeOffer,
    server_offer: HandshakeOffer,
    verifier: Optional[AttestationService] = None,
    client_requires: Optional[QuotePolicy] = None,
) -> SecureChannel:
    """Client half: verify the server's reply and derive the client end."""
    check_offer(
        server_offer, client_requires, verifier, f"server of {client.name!r}"
    )
    transcript = client_offer.transcript_bytes() + server_offer.transcript_bytes()
    secret = client.shared_secret(server_offer)
    c2s, s2c = _derive_pair(secret, transcript, client.name)
    return SecureChannel(
        send_key=c2s,
        recv_key=s2c,
        label=f"ratls-{next(_channel_ids)}:{client.name}",
    )


def perform_handshake(
    client: RatlsPeer,
    server: RatlsPeer,
    verifier: Optional[AttestationService] = None,
    client_requires: Optional[QuotePolicy] = None,
    server_requires: Optional[QuotePolicy] = None,
) -> Tuple[SecureChannel, SecureChannel]:
    """Run both halves in-process; returns ``(client_end, server_end)``."""
    client_offer = client.offer()
    server_offer, server_end, _ = respond_handshake(
        server, client_offer, verifier, server_requires
    )
    client_end = complete_handshake(
        client, client_offer, server_offer, verifier, client_requires
    )
    return client_end, server_end
