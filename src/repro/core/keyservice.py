"""KeyService: trust establishment and key provisioning (Algorithm 1).

KeyService is the always-on enclave bridging users and serverless
instances.  It stores four data sets *inside the enclave*:

- ``KS_I``: ``<id, K_id>`` -- long-term identity keys of owners/users,
  where ``id = SHA256(K_id)``;
- ``KS_M``: ``<M_oid, K_M>`` -- model decryption keys;
- ``KS_R``: ``<M_oid || E_S || uid, K_R>`` -- request keys, released only
  to enclave identity ``E_S`` serving model ``M_oid`` for user ``uid``;
- ``AC_M``: ``<M_oid || E_S || uid>`` -- the owner's access grants.

Clients reach it over RA-TLS channels terminated inside the enclave
(``EC_HANDSHAKE``); all operations arrive as encrypted messages on those
channels (``EC_REQUEST``).  ``KEY_PROVISIONING`` additionally requires
the channel to be mutually attested, and matches the requesting enclave's
MRENCLAVE against the access-control records -- the core of the paper's
security argument.

Beyond Algorithm 1 we implement ``REVOKE_ACCESS`` (the inverse of
``GRANT_ACCESS``), a natural extension the healthcare example exercises.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from typing import Dict, Optional, Set, Tuple

from repro.core import wire
from repro.crypto.gcm import AESGCM
from repro.crypto.hashes import sha256
from repro.errors import (
    AccessDenied,
    AttestationError,
    EnclaveError,
    SealingError,
    TransportError,
    UnknownIdentity,
)
from repro.obs.tracer import maybe_span
from repro.sgx.attestation import AttestationService, QuotePolicy, Report
from repro.sgx.enclave import (
    Enclave,
    EnclaveBuildConfig,
    EnclaveCode,
    Kind,
    ecall,
)
from repro.sgx.measurement import (
    EnclaveMeasurement,
    code_identity_of,
    measure,
)
from repro.sgx.platform import SgxPlatform
from repro.sgx.ratls import (
    QUOTE,
    HandshakeOffer,
    RatlsPeer,
    SecureChannel,
    respond_handshake,
)

#: default build configuration of the KeyService enclave
KEYSERVICE_CONFIG = EnclaveBuildConfig(memory_bytes=32 * 1024 * 1024, tcs_count=8)

#: RA-TLS channels the enclave keeps open at once.  One-way attestation lets
#: anyone open a channel, and each holds two AES-GCM states (~0.5 MB once
#: their GHASH tables are built) of a 32 MB heap, so the table is bounded:
#: the least recently used channel is dropped and its peer, on its next
#: request, is told "unknown channel" and attests again.
MAX_CHANNELS = 16

# The fields of each operation's message (KeyServiceEnclaveCode.OPERATIONS).
# A misshapen message is refused like any other operation: an ok-False reply.
#: a principal or model id
_ID = Kind(str, least=1, most=256)
_REGISTER = Kind(dict, error=AccessDenied, fields={"identity_key": Kind(bytes, least=16, most=32)})
#: an owner's id and a payload sealed under its identity key
_OWNER_OP = Kind(dict, error=AccessDenied, fields={"oid": _ID, "blob": Kind(bytes)})
_ADD_REQ_KEY = Kind(dict, error=AccessDenied, fields={"uid": _ID, "blob": Kind(bytes)})
_PROVISION = Kind(dict, error=AccessDenied, fields={"uid": _ID, "model_id": _ID})


def expected_keyservice_measurement(
    config: EnclaveBuildConfig = KEYSERVICE_CONFIG,
) -> EnclaveMeasurement:
    """Derive ``E_K`` independently, from the code and config alone.

    This is what the model owner and users compute before trusting a
    deployment (Section III's workflow, step 1).
    """
    build_view = dict(config.as_mapping())
    build_view["settings"] = dict(KeyServiceEnclaveCode.SETTINGS)
    return measure(code_identity_of(KeyServiceEnclaveCode), build_view)


class KeyServiceEnclaveCode(EnclaveCode):
    """The trusted half of KeyService (runs inside the enclave)."""

    SETTINGS = {"service": "keyservice", "protocol": 1}
    OCALLS = {"OC_GET_QUOTE": QUOTE}

    def __init__(self, attestation: AttestationService, sealing=None) -> None:
        super().__init__()
        self._attestation = attestation
        # the platform's sealing-key derivation (None => no sealed
        # checkpoints); deliberately NOT part of settings(): sealing
        # availability is a platform property, not a code identity
        self._sealing = sealing
        self._ks_i: Dict[str, bytes] = {}
        self._ks_m: Dict[str, bytes] = {}
        self._ks_r: Dict[Tuple[str, str, str], bytes] = {}
        self._ac_m: Set[Tuple[str, str, str]] = set()
        #: channel id -> (channel, the peer's verified report or None),
        #: least recently used first; at most MAX_CHANNELS entries
        self._channels: OrderedDict[int, Tuple[SecureChannel, Optional[Report]]] = OrderedDict()
        self._channels_lock = threading.Lock()
        self._channel_ids = itertools.count(1)
        # in-enclave per-principal identity ciphers: repeat operations
        # from one principal reuse the derived AES-GCM state instead of
        # rebuilding the key schedule + GHASH tables per op.  Built
        # directly (not via the process-wide AESGCM.derive cache) so
        # enclave-held key material never leaves the enclave object.
        self._identity_ciphers: Dict[str, AESGCM] = {}

    # -- ECALL surface ------------------------------------------------------------

    @ecall(Kind(dict, error=AttestationError))
    def EC_HANDSHAKE(self, offer_wire: dict) -> dict:
        """Terminate an RA-TLS handshake inside the enclave.

        The client's quote, when present, is verified *inside* the enclave
        (Appendix A); the verified report is pinned to the channel so
        ``KEY_PROVISIONING`` can read the requester's identity ``E_S``.
        """
        client_offer = HandshakeOffer.from_wire(offer_wire)
        peer = RatlsPeer(
            "keyservice",
            enclave=self.enclave,
            quoter=lambda report: self.ocall("OC_GET_QUOTE", report),
        )
        policy = QuotePolicy() if client_offer.quote is not None else None
        server_offer, channel, client_report = respond_handshake(
            peer, client_offer, verifier=self._attestation, server_requires=policy
        )
        channel_id = next(self._channel_ids)
        with self._channels_lock:
            self._channels[channel_id] = (channel, client_report)
            while len(self._channels) > MAX_CHANNELS:
                self._channels.popitem(last=False)
        return {"channel_id": channel_id, "server_offer": server_offer.to_wire()}

    @ecall(Kind(int, least=1), Kind(bytes))
    def EC_REQUEST(self, channel_id: int, ciphertext: bytes) -> bytes:
        """Process one encrypted operation on an established channel."""
        with self._channels_lock:
            entry = self._channels.get(channel_id)
            if entry is not None:
                self._channels.move_to_end(channel_id)
        if entry is None:
            raise EnclaveError(f"unknown channel {channel_id}")
        channel, peer = entry
        message = wire.loads(channel.recv(ciphertext))
        response = self._dispatch(peer, message)
        return channel.send(wire.dumps(response))

    @ecall()
    def EC_SEAL_STATE(self) -> bytes:
        """Checkpoint the four key stores, sealed to this enclave identity.

        RA-TLS channels are deliberately *not* checkpointed: sessions
        die with the enclave, and clients re-attest on reconnect -- the
        recovery path :meth:`SemirtEnclaveCode._fetch_keys` already
        implements.
        """
        if self._sealing is None:
            raise SealingError("this platform provides no sealing service")
        state = {
            "ks_i": dict(self._ks_i),
            "ks_m": dict(self._ks_m),
            "ks_r": [[m, e, u, key] for (m, e, u), key in self._ks_r.items()],
            "ac_m": [[m, e, u] for (m, e, u) in sorted(self._ac_m)],
        }
        return self._sealing.seal(self.enclave, wire.dumps(state))

    @ecall(Kind(bytes))
    def EC_RESTORE_STATE(self, sealed: bytes) -> int:
        """Load a sealed checkpoint produced by :meth:`EC_SEAL_STATE`.

        Unsealing enforces the identity binding: a blob sealed by a
        different enclave code, build, or platform fails authentication.
        Returns the number of recovered principals.
        """
        if self._sealing is None:
            raise SealingError("this platform provides no sealing service")
        state = wire.loads(self._sealing.unseal(self.enclave, sealed))
        self._ks_i = dict(state["ks_i"])
        self._identity_ciphers.clear()
        self._ks_m = dict(state["ks_m"])
        self._ks_r = {(m, e, u): key for m, e, u, key in state["ks_r"]}
        self._ac_m = {(m, e, u) for m, e, u in state["ac_m"]}
        return len(self._ks_i)

    # -- operation dispatch ---------------------------------------------------------

    def _dispatch(self, peer: Optional[Report], message: dict) -> dict:
        """Run one operation whose message fits its row of :attr:`OPERATIONS`.

        The message may come over a one-way channel anyone can open: an
        unknown operation or a misshapen message is an ``ok: False`` reply.
        """
        op = message.get("op")
        row = self.OPERATIONS.get(op) if type(op) is str else None
        if row is None:
            return {"ok": False, "error": f"unknown operation {op!r}"}
        handler, fields = row
        try:
            fields.check(message, f"malformed {op!r} message")
            return {"ok": True, **handler(self, peer, message)}
        except (AccessDenied, UnknownIdentity) as exc:
            return {"ok": False, "error": str(exc)}

    def _identity_cipher(self, principal_id: str) -> AESGCM:
        key = self._ks_i.get(principal_id)
        if key is None:
            raise UnknownIdentity(f"principal {principal_id[:12]}... is not registered")
        cipher = self._identity_ciphers.get(principal_id)
        if cipher is None:
            cipher = AESGCM(key)
            self._identity_ciphers[principal_id] = cipher
        return cipher

    @staticmethod
    def _open_authenticated(cipher: AESGCM, blob: bytes, op: str) -> dict:
        """Open a payload sealed under a principal's long-term key.

        The AAD pins the operation name, so a recorded ``add_req_key``
        payload cannot be replayed as a ``grant_access``.
        """
        try:
            return wire.loads(cipher.unseal(blob, aad=op.encode()))
        except Exception as exc:
            raise AccessDenied(
                f"payload for {op!r} is not authenticated by the claimed principal"
            ) from exc

    # USER_REGISTRATION (Algorithm 1, lines 5-8)
    def _op_register(self, peer: Optional[Report], message: dict) -> dict:
        identity_key = message["identity_key"]
        principal_id = sha256(identity_key).hex()
        self._ks_i[principal_id] = identity_key
        return {"id": principal_id}

    # ADD_MODEL_KEY (lines 9-12)
    def _op_add_model_key(self, peer: Optional[Report], message: dict) -> dict:
        cipher = self._identity_cipher(message["oid"])
        payload = self._open_authenticated(cipher, message["blob"], "add_model_key")
        self._ks_m[payload["model_id"]] = payload["model_key"]
        return {"model_id": payload["model_id"]}

    # GRANT_ACCESS (lines 13-16)
    def _op_grant_access(self, peer: Optional[Report], message: dict) -> dict:
        cipher = self._identity_cipher(message["oid"])
        payload = self._open_authenticated(cipher, message["blob"], "grant_access")
        record = (payload["model_id"], payload["enclave_id"], payload["uid"])
        self._ac_m.add(record)
        return {}

    # REVOKE_ACCESS (extension: the inverse of GRANT_ACCESS)
    def _op_revoke_access(self, peer: Optional[Report], message: dict) -> dict:
        cipher = self._identity_cipher(message["oid"])
        payload = self._open_authenticated(cipher, message["blob"], "revoke_access")
        record = (payload["model_id"], payload["enclave_id"], payload["uid"])
        self._ac_m.discard(record)
        return {}

    # ADD_REQ_KEY (lines 17-20)
    def _op_add_req_key(self, peer: Optional[Report], message: dict) -> dict:
        cipher = self._identity_cipher(message["uid"])
        payload = self._open_authenticated(cipher, message["blob"], "add_req_key")
        record = (payload["model_id"], payload["enclave_id"], message["uid"])
        self._ks_r[record] = payload["request_key"]
        return {}

    # KEY_PROVISIONING (lines 21-26)
    def _op_provision(self, peer: Optional[Report], message: dict) -> dict:
        if peer is None:
            raise AccessDenied(
                "key provisioning requires a mutually attested channel"
            )
        enclave_id = peer.mrenclave.value
        record = (message["model_id"], enclave_id, message["uid"])
        if record not in self._ac_m:
            raise AccessDenied(
                "the model owner has not granted this enclave/user combination"
            )
        if record not in self._ks_r:
            raise AccessDenied(
                "the user has not released a request key for this enclave"
            )
        model_key = self._ks_m.get(message["model_id"])
        if model_key is None:
            raise AccessDenied("no decryption key stored for this model")
        return {"model_key": model_key, "request_key": self._ks_r[record]}

    #: operation -> (handler, the fields of its message)
    OPERATIONS = {
        "register": (_op_register, _REGISTER),
        "add_model_key": (_op_add_model_key, _OWNER_OP),
        "grant_access": (_op_grant_access, _OWNER_OP),
        "revoke_access": (_op_revoke_access, _OWNER_OP),
        "add_req_key": (_op_add_req_key, _ADD_REQ_KEY),
        "provision": (_op_provision, _PROVISION),
    }

    # -- introspection used by tests ---------------------------------------------------

    @property
    def registered_principals(self) -> int:
        return len(self._ks_i)


class KeyServiceHost:
    """Untrusted host process of KeyService.

    Launches the enclave on an SGX platform, wires the quote OCALL to the
    platform's quoting enclave, and relays opaque byte blobs between the
    network and the enclave -- it can observe traffic but never keys.
    """

    def __init__(
        self,
        platform: SgxPlatform,
        attestation: AttestationService,
        config: EnclaveBuildConfig = KEYSERVICE_CONFIG,
        tracer=None,
    ) -> None:
        self.platform = platform
        self.attestation = attestation
        self.config = config
        self.tracer = tracer
        self._down = False
        self._launch()

    def _launch(self) -> None:
        code = KeyServiceEnclaveCode(
            self.attestation, sealing=self.platform.sealing
        )
        self.enclave: Enclave = self.platform.create_enclave(code, self.config)
        self.enclave.register_ocall("OC_GET_QUOTE", self.platform.quote)
        self.code = code

    @property
    def measurement(self) -> EnclaveMeasurement:
        """The deployed ``E_K`` (clients must verify it independently)."""
        return self.enclave.measurement

    # -- lifecycle (availability model) -------------------------------------------

    @property
    def alive(self) -> bool:
        """True while the host answers; False after :meth:`stop`."""
        return not self._down and self.enclave.alive

    def snapshot(self) -> bytes:
        """A sealed checkpoint of the enclave's key stores.

        The host only ever holds ciphertext: the blob is sealed inside
        the enclave to its own identity on this platform.
        """
        return self.enclave.ecall("EC_SEAL_STATE")

    def stop(self) -> None:
        """Crash-stop the shard: the enclave dies, requests get refused.

        All in-enclave state -- key stores *and* live RA-TLS channels --
        is gone; only a sealed :meth:`snapshot` taken earlier survives.
        """
        self._down = True
        self.enclave.destroy()

    def restart(self, sealed: Optional[bytes] = None) -> None:
        """Bring a stopped shard back, optionally from a sealed checkpoint.

        A fresh enclave (same code, same build, hence the same ``E_K``)
        is launched; with ``sealed`` it recovers the checkpointed key
        stores through the platform's sealing service.  Clients and
        SeMIRT instances must re-attest: their old channels are invalid,
        which the one-shot re-attestation path handles transparently.
        """
        if self.enclave.alive:
            self.enclave.destroy()
        self._launch()
        self._down = False
        if sealed is not None:
            self.enclave.ecall("EC_RESTORE_STATE", sealed)

    def _refuse_if_down(self) -> None:
        if not self.alive:
            raise TransportError(
                f"keyservice on {self.platform.platform_id} is down"
            )

    # network-facing endpoints (untrusted relay) ---------------------------------

    def handshake(self, offer_wire: dict) -> dict:
        """Relay a handshake offer into the enclave (untrusted pass-through)."""
        self._refuse_if_down()
        with maybe_span(self.tracer, "keyservice.handshake"):
            return self.enclave.ecall("EC_HANDSHAKE", offer_wire)

    def request(self, channel_id: int, ciphertext: bytes) -> bytes:
        """Relay an encrypted operation into the enclave (untrusted pass-through).

        Only the channel id is recorded on the span: the operation name
        travels inside the ciphertext, so even the host's own telemetry
        cannot see which KeyService operation a client performed.
        """
        self._refuse_if_down()
        with maybe_span(self.tracer, "keyservice.request", channel_id=channel_id):
            return self.enclave.ecall("EC_REQUEST", channel_id, ciphertext)
