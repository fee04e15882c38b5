"""Model-owner and model-user clients.

Clients hold long-term identity keys, attest KeyService before trusting
it (checking ``E_K`` they derived independently), and perform the
workflow of Section III: register, upload encrypted models, grant
access, release request keys, and finally encrypt requests / decrypt
responses end to end.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import wire
from repro.core.futures import DerivedStream
from repro.core.semirt_enclave import (
    FRAME,
    FRAME_AAD,
    REQUEST_AAD,
    RESPONSE_AAD,
    STREAM_AAD,
    FrameRun,
    stream_body,
    tensor_body,
)
from repro.crypto.gcm import (
    NONCE_SIZE,
    TAG_SIZE,
    AESGCM,
    evict_session,
    frame_nonce,
)
from repro.crypto.keys import SymmetricKey
from repro.errors import AccessDenied, EnclaveError, InvalidTag, InvocationError, SeSeMIError
from repro.faults.injector import maybe_wire
from repro.mlrt.model import Model
from repro.obs.tracer import maybe_span
from repro.sgx.attestation import AttestationService, QuotePolicy
from repro.sgx.measurement import EnclaveMeasurement
from repro.sgx.ratls import HandshakeOffer, RatlsPeer, complete_handshake


class KeyServiceConnection:
    """An RA-TLS session from a (non-enclave) client to KeyService.

    The client verifies the KeyService quote against the expected ``E_K``
    before any secret crosses the channel.  KeyService keeps a bounded,
    least-recently-used table of channels, so a connection that sat idle may
    find its channel gone; it then attests again -- same checks -- and
    repeats the request, once.
    """

    def __init__(
        self,
        host,
        attestation: AttestationService,
        expected_measurement: EnclaveMeasurement,
        name: str = "client",
        *,
        tracer=None,
        injector=None,
    ) -> None:
        self._tracer = tracer
        #: optional repro.faults.injector.FaultInjector wrapping this connection's wire
        self._injector = injector
        self._host = host
        self._attestation = attestation
        self._expected = expected_measurement
        self._name = name
        self._attest()

    def _attest(self) -> None:
        """Handshake with KeyService, verifying its quote against ``E_K``."""
        with maybe_span(
            self._tracer, "ratls_handshake", client=self._name, peer="keyservice"
        ):
            peer = RatlsPeer(self._name)
            offer = peer.offer()
            reply = self._host.handshake(offer.to_wire())
            server_offer = HandshakeOffer.from_wire(reply["server_offer"])
            self._channel = complete_handshake(
                peer,
                offer,
                server_offer,
                verifier=self._attestation,
                client_requires=QuotePolicy(expected_mrenclave=self._expected),
            )
        self._channel_id = reply["channel_id"]

    def call(self, message: dict) -> dict:
        """One encrypted request/response round trip (over a faulty wire)."""
        try:
            return self._round_trip(message)
        except EnclaveError:  # "unknown channel": evicted while idle
            self._attest()
            return self._round_trip(message)

    def _round_trip(self, message: dict) -> dict:
        ciphertext = self._channel.send(wire.dumps(message))
        ciphertext = maybe_wire(self._injector, "client->keyservice", ciphertext)
        reply_cipher = self._host.request(self._channel_id, ciphertext)
        reply_cipher = maybe_wire(self._injector, "keyservice->client", reply_cipher)
        return wire.loads(self._channel.recv(reply_cipher))

    def call_checked(self, message: dict) -> dict:
        """Like :meth:`call` but raises :class:`AccessDenied` on refusal."""
        reply = self.call(message)
        if not reply.get("ok"):
            raise AccessDenied(reply.get("error", "operation refused"))
        return reply


class _Principal:
    """Shared owner/user behaviour: identity key + registration.

    ``identity_key`` defaults to a fresh random key; deterministic
    harnesses (chaos runs gated on byte-identical numbers) pass a fixed
    one so the principal's id -- and hence its KeyService shard
    placement -- is stable across runs.
    """

    def __init__(
        self,
        name: str,
        *,
        tracer=None,
        identity_key: Optional[SymmetricKey] = None,
    ) -> None:
        self.name = name
        self.identity_key = identity_key or SymmetricKey.generate()
        self._connection: Optional[KeyServiceConnection] = None
        self.principal_id: Optional[str] = None
        #: optional :class:`~repro.obs.tracer.Tracer` for client-side spans
        self.tracer = tracer

    @property
    def connection(self) -> KeyServiceConnection:
        if self._connection is None:
            raise SeSeMIError(f"{self.name} is not connected to KeyService")
        return self._connection

    def connect(
        self,
        keyservice_host,
        attestation: AttestationService,
        expected_measurement: EnclaveMeasurement,
        *,
        injector=None,
    ) -> None:
        """Attest KeyService and open a secure channel."""
        self._connection = KeyServiceConnection(
            keyservice_host,
            attestation,
            expected_measurement,
            name=self.name,
            tracer=self.tracer,
            injector=injector,
        )

    def register(self) -> str:
        """USER_REGISTRATION: send the identity key, learn our id."""
        reply = self.connection.call_checked(
            {"op": "register", "identity_key": bytes(self.identity_key)}
        )
        expected = self.identity_key.fingerprint
        if reply["id"] != expected:
            raise SeSeMIError("KeyService returned an inconsistent identity")
        self.principal_id = reply["id"]
        return self.principal_id

    def _sealed(self, op: str, payload: dict) -> bytes:
        """Seal an operation payload under our long-term key (AAD = op)."""
        # control-plane ops stay on canonical JSON (debuggable, and the
        # sealed bytes feed deterministic harnesses); the cipher context
        # is derived once per identity key, not rebuilt per call
        return AESGCM.derive(self.identity_key).seal(
            wire.dumps(payload), aad=op.encode()
        )


class OwnerClient(_Principal):
    """The model owner: trains, encrypts, deploys, and grants access."""

    def __init__(
        self,
        name: str = "owner",
        *,
        tracer=None,
        identity_key: Optional[SymmetricKey] = None,
    ) -> None:
        super().__init__(name, tracer=tracer, identity_key=identity_key)
        self._model_keys: Dict[str, SymmetricKey] = {}

    def model_key(self, model_id: str) -> SymmetricKey:
        """The model key generated for ``model_id`` (raises if not deployed)."""
        try:
            return self._model_keys[model_id]
        except KeyError:
            raise SeSeMIError(f"no model key generated for {model_id!r}") from None

    def encrypt_model(self, model: Model, model_id: str) -> bytes:
        """Generate a fresh model key and encrypt the serialised model."""
        old = self._model_keys.get(model_id)
        if old is not None:
            evict_session(old)  # rotation: drop the retired key's context
        key = SymmetricKey.generate()
        self._model_keys[model_id] = key
        return AESGCM.derive(key).seal(model.serialize(), aad=model_id.encode())

    def deploy_model(self, model: Model, model_id: str, storage) -> None:
        """Encrypt and upload the model artifact (workflow step 2)."""
        storage.put(f"models/{model_id}", self.encrypt_model(model, model_id))

    def add_model_key(self, model_id: str) -> None:
        """ADD_MODEL_KEY: hand the model key to KeyService, authenticated."""
        blob = self._sealed(
            "add_model_key",
            {"model_id": model_id, "model_key": bytes(self.model_key(model_id))},
        )
        self.connection.call_checked(
            {"op": "add_model_key", "oid": self.principal_id, "blob": blob}
        )

    def rotate_model_key(self, model_id: str, model: Model, storage) -> None:
        """Re-key a deployed model (extension: periodic key rotation).

        Generates a fresh model key, re-encrypts and re-uploads the
        artifact, and replaces the key in KeyService.  Enclaves holding
        the *old* key cannot decrypt the new artifact: their next model
        load fails authentication, forcing a fresh key fetch -- stale
        keys age out without any push mechanism.
        """
        self.deploy_model(model, model_id, storage)  # fresh key + upload
        self.add_model_key(model_id)

    def grant_access(
        self, model_id: str, enclave: EnclaveMeasurement, uid: str
    ) -> None:
        """GRANT_ACCESS: allow enclave ``E_S`` to serve ``model_id`` to ``uid``."""
        blob = self._sealed(
            "grant_access",
            {"model_id": model_id, "enclave_id": enclave.value, "uid": uid},
        )
        self.connection.call_checked(
            {"op": "grant_access", "oid": self.principal_id, "blob": blob}
        )

    def revoke_access(
        self, model_id: str, enclave: EnclaveMeasurement, uid: str
    ) -> None:
        """REVOKE_ACCESS (extension): withdraw a previous grant."""
        blob = self._sealed(
            "revoke_access",
            {"model_id": model_id, "enclave_id": enclave.value, "uid": uid},
        )
        self.connection.call_checked(
            {"op": "revoke_access", "oid": self.principal_id, "blob": blob}
        )


class UserClient(_Principal):
    """The model user: releases request keys and runs encrypted inference."""

    def __init__(
        self,
        name: str = "user",
        *,
        tracer=None,
        identity_key: Optional[SymmetricKey] = None,
    ) -> None:
        super().__init__(name, tracer=tracer, identity_key=identity_key)
        self._request_keys: Dict[Tuple[str, str], SymmetricKey] = {}
        #: per-(model, enclave) derived request ciphers -- the client half
        #: of the session key cache (shared by UserSession/RemoteSession)
        self._request_ciphers: Dict[Tuple[str, str], AESGCM] = {}

    def request_key(self, model_id: str, enclave: EnclaveMeasurement) -> SymmetricKey:
        """The request key for ``(model, enclave)``; generated on first use."""
        slot = (model_id, enclave.value)
        key = self._request_keys.get(slot)
        if key is None:
            key = SymmetricKey.generate()
            self._request_keys[slot] = key
        return key

    def reset_request_key(
        self, model_id: str, enclave: EnclaveMeasurement
    ) -> None:
        """Forget the request key for ``(model, enclave)``.

        The re-grant invalidation hook: the next :meth:`request_key`
        generates a fresh key, the derived session cipher is dropped
        here, and enclaves holding the old key self-heal by refetching
        when the first request under the new key fails to authenticate.
        """
        slot = (model_id, enclave.value)
        key = self._request_keys.pop(slot, None)
        self._request_ciphers.pop(slot, None)
        if key is not None:
            evict_session(key)

    def _request_cipher(
        self, model_id: str, enclave: EnclaveMeasurement
    ) -> AESGCM:
        """The cached session cipher for ``(model, enclave)``.

        Derived once per request key and reused across the hot session;
        rebuilding GHASH tables per request was the dominant client-side
        crypto cost (see docs/performance.md).
        """
        slot = (model_id, enclave.value)
        cipher = self._request_ciphers.get(slot)
        if cipher is None:
            cipher = AESGCM.derive(self.request_key(model_id, enclave))
            self._request_ciphers[slot] = cipher
        return cipher

    def add_request_key(self, model_id: str, enclave: EnclaveMeasurement) -> None:
        """ADD_REQ_KEY: release the request key for one enclave identity."""
        key = self.request_key(model_id, enclave)
        blob = self._sealed(
            "add_req_key",
            {
                "model_id": model_id,
                "enclave_id": enclave.value,
                "request_key": bytes(key),
            },
        )
        self.connection.call_checked(
            {"op": "add_req_key", "uid": self.principal_id, "blob": blob}
        )

    def encrypt_request(
        self, model_id: str, enclave: EnclaveMeasurement, x: np.ndarray
    ) -> bytes:
        """Encrypt an input tensor for ``model_id`` under the request key."""
        with maybe_span(self.tracer, "encrypt_request", model_id=model_id):
            return self._request_cipher(model_id, enclave).seal(
                tensor_body(x), aad=REQUEST_AAD + model_id.encode()
            )

    def encrypt_stream_request(
        self,
        model_id: str,
        enclave: EnclaveMeasurement,
        prompt,
        max_new_tokens: int,
    ) -> bytes:
        """Encrypt a streaming prompt for ``EC_MODEL_INF_STREAM``.

        ``prompt`` is a sequence of token ids.  The payload is sealed
        under the same request key as one-shot requests but with the
        stream AAD, so a stream request can never be replayed into
        ``EC_MODEL_INF`` (and vice versa).
        """
        with maybe_span(self.tracer, "encrypt_stream_request", model_id=model_id):
            return self._request_cipher(model_id, enclave).seal(
                stream_body(prompt, int(max_new_tokens)),
                aad=STREAM_AAD + model_id.encode(),
            )

    def decrypt_frame(
        self, model_id: str, enclave: EnclaveMeasurement, frame: bytes
    ) -> dict:
        """Authenticate and decrypt one sealed token frame on its own.

        Returns ``{"token": int, "index": int, "done": bool}``.  A single
        frame cannot say where in which stream it belongs: a whole stream
        is checked by :class:`TokenStream`, which also holds the stream's
        keystream run instead of running an AES batch per frame.
        """
        with maybe_span(self.tracer, "decrypt_frame", model_id=model_id):
            try:
                token, index, done = FRAME.unpack(
                    self._request_cipher(model_id, enclave).unseal(
                        frame, aad=FRAME_AAD + model_id.encode()
                    )
                )
            except Exception as exc:
                raise InvocationError(_FRAME_FORGED) from exc
            return {"token": token, "index": index, "done": done}

    def decrypt_response(
        self, model_id: str, enclave: EnclaveMeasurement, enc_response: bytes
    ) -> np.ndarray:
        """Authenticate and decrypt the inference result."""
        with maybe_span(self.tracer, "decrypt_response", model_id=model_id):
            try:
                return np.frombuffer(
                    self._request_cipher(model_id, enclave).unseal(
                        enc_response, aad=RESPONSE_AAD + model_id.encode()
                    ),
                    dtype=np.float32,
                )
            except Exception as exc:
                raise InvocationError(
                    "response does not authenticate under the request key"
                ) from exc


_FRAME_FORGED = "token frame does not authenticate under the request key"
#: a sealed frame's length: nonce, the fixed body, tag
_FRAME_BYTES = NONCE_SIZE + FRAME.size + TAG_SIZE


class TokenStream(DerivedStream):
    """The client half of the streaming protocol, over any transport.

    A :class:`~repro.core.futures.DerivedStream` over a stream of
    sealed frames (``inner``) that yields the **decrypted** token ids
    (``result()``: the full list).  Frame 0's nonce is the stream's base
    nonce ``N``; frame ``i`` must carry ``N xor i`` and seal index ``i``,
    and the stream may only end on a frame whose sealed ``done`` marker
    is set, so a host or relay that drops, reorders, replays, splices in
    another stream's frames **or truncates** is an
    :class:`~repro.errors.InvocationError` after the authenticated
    prefix, never a silently wrong or short sequence.  Keystreams come
    from the stream's :class:`~repro.core.semirt_enclave.FrameRun`, one
    AES batch per run of up to ``RUN_FRAMES`` frames, the first drawn
    when frame 0 is opened.  ``session`` says whose keys open them
    (``.user`` / ``.model_id`` / ``.measurement``); ``max_new_tokens``
    (the most frames the stream can have) sizes the runs.
    """

    def __init__(self, session, inner, max_new_tokens: int) -> None:
        super().__init__(inner)
        self._session = session
        self._frames = max_new_tokens
        self._keys: Optional[FrameRun] = None

    def __iter__(self) -> Iterator[int]:
        return self._tokens(super().__iter__())

    def _map(self, frames: Sequence[bytes]) -> List[int]:
        return list(self._tokens(super()._map(frames)))

    def _map_item(self, frame: bytes, index: int) -> dict:
        session = self._session
        user, model_id = session.user, session.model_id
        with maybe_span(user.tracer, "decrypt_frame", model_id=model_id):
            if len(frame) != _FRAME_BYTES:
                raise InvocationError(_FRAME_FORGED)
            nonce, keys = frame[:NONCE_SIZE], self._keys
            if index == 0 and (keys is None or keys.nonce != nonce):
                cipher = user._request_cipher(model_id, session.measurement)
                keys = self._keys = FrameRun(cipher, nonce, self._frames)
            elif keys is None or nonce != frame_nonce(keys.nonce, index):
                raise InvocationError(
                    f"stream frame out of order: frame {index} does not carry its "
                    "stream's nonce (dropped, reordered, replayed or spliced frame)"
                )
            try:
                token, sealed_index, done = FRAME.unpack(keys.cipher.open_with(
                    keys.keystream(index), frame, FRAME_AAD + model_id.encode()
                ))
            except InvalidTag as exc:
                raise InvocationError(_FRAME_FORGED) from exc
            if sealed_index != index:
                raise InvocationError(
                    f"stream frame out of order: expected index {index}, got {sealed_index}"
                )
            return {"token": token, "index": index, "done": done}

    @staticmethod
    def _tokens(payloads: Iterable[dict]) -> Iterator[int]:
        """Each authenticated payload's token; then the end-of-stream check."""
        done = False
        for payload in payloads:
            done = payload["done"]
            yield payload["token"]
        if not done:
            raise InvocationError(
                "stream truncated: it ended before the frame sealed as the last"
            )
