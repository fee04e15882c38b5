"""Model-owner and model-user clients, and the one serving session.

Clients hold long-term identity keys, attest KeyService before trusting
it (checking ``E_K`` they derived independently), and perform the
workflow of Section III: register, upload encrypted models, grant
access, release request keys, and finally encrypt requests / decrypt
responses end to end.

:class:`UserSession` is the user's side of Algorithm 2, written once:
it seals every request, hands the ciphertext to a *gateway* -- the
in-process :class:`~repro.core.gateway.InferenceGateway`, or the
service tier over HTTP (:class:`~repro.service.client.HttpGateway`) --
and opens every reply itself.  The platform in between only moves
ciphertext.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import repro.core.wire as wire
from repro.core.futures import DerivedHandle, DerivedStream, gather_windowed
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
from repro.faults.resilience import Deadline, ResilientCaller
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
        # a wire frame is canonical, so the sealed bytes feed
        # deterministic harnesses; the cipher context is derived once
        # per identity key, not rebuilt per call
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
        #: of the session key cache (shared by every UserSession)
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


class UserSession:
    """One user's serving session against one deployed model.

    The session seals every input under the user's request key for the
    enclave identity ``measurement``, hands the ciphertext to its
    ``gateway`` and opens what comes back.  A gateway is any object with
    the three entry points of :class:`~repro.core.gateway.InferenceGateway`
    over sealed bytes -- ``dispatch(enc, uid, model_id, timeout_s)``
    (a reply with the sealed ``output`` and the ``flavor`` it was served
    with, ``None`` when unknown), ``submit(...)`` (a
    :class:`~repro.core.futures.Future` of the sealed output),
    ``open_stream(...)`` (a stream of sealed frames) -- plus
    ``feed_window(admitted)``, the in-flight window :meth:`infer_many`
    keeps behind the first admitted request.  Two exist: the in-process
    gateway (:meth:`SeSeMIEnvironment.session
    <repro.core.deployment.SeSeMIEnvironment.session>`) and the service
    tier over HTTP (:class:`~repro.service.client.HttpGateway`,
    ``RemoteEnvironment.session``).

    ``node_id`` names an in-process session's invoker node (a root-span
    attribute and the retry label); ``caller`` puts :meth:`infer` under
    deadline, retry and breaker handling; ``injector`` threads the
    ``user->semirt`` / ``semirt->user`` wire fault sites.  A session
    with no ``tracer`` opens no span.  :meth:`close` closes the gateway
    only when the session ``owns_gateway``.
    """

    def __init__(
        self,
        gateway,
        user: UserClient,
        model_id: str,
        measurement: EnclaveMeasurement,
        *,
        node_id: Optional[str] = None,
        tracer=None,
        injector=None,
        caller: Optional[ResilientCaller] = None,
        owns_gateway: bool = False,
    ) -> None:
        if user.principal_id is None:
            raise SeSeMIError("user must be registered first")
        self._gateway = gateway
        self.user = user
        self.model_id = model_id
        #: the enclave identity requests are sealed for
        self.measurement = measurement
        self.node_id = node_id
        self._tracer = tracer
        self._injector = injector
        self._caller = caller
        self._owns_gateway = owns_gateway
        #: the attributes every root span of the session opens with
        self._attributes = {"model_id": model_id, "user_id": user.principal_id}
        if node_id is not None:
            self._attributes["node_id"] = node_id

    @property
    def gateway(self):
        """The gateway this session dispatches through."""
        return self._gateway

    @property
    def semirt(self):
        """An in-process session's live SeMIRT host, ``None`` before the
        first request (on a shared fleet: its first live host)."""
        return self._gateway.primary_host()

    def infer(self, x: np.ndarray, timeout_s: Optional[float] = None) -> np.ndarray:
        """Seal ``x``, dispatch it, open the result.

        The round trip runs under one ``request`` root span; an
        in-process cold call also traces the sandbox and enclave start it
        triggers.  ``timeout_s`` (the repo-wide wait keyword, seconds;
        docs/service.md) reaches the gateway's ``dispatch``, so a
        request that is still serving when it expires raises
        :class:`~repro.errors.DeadlineExceeded`; ``None`` waits as long
        as serving takes.

        With a ``caller``, transport failures are retried with backoff
        under a per-request budget (``timeout_s``, else the policy
        default), guarded by the ``(model, node)`` circuit breaker; a
        crashed SeMIRT enclave is relaunched cold on the next attempt.
        An explicit ``timeout_s`` is one budget for the whole call: each
        attempt is dispatched with what is left of it.  Retries appear
        as ``retry`` events on the root span.
        """
        with maybe_span(self._tracer, "request", **self._attributes) as root:
            caller = self._caller
            if caller is None:
                return self._attempt(x, root, timeout_s)

            def record_retry(attempt, exc, delay):
                if root is not None:
                    root.add_event(
                        "retry", attempt=attempt, error=type(exc).__name__, backoff_s=delay
                    )

            deadline = Deadline(
                caller.clock, caller.policy.deadline_s if timeout_s is None else timeout_s
            )
            return caller.call(
                f"infer:{self.model_id}@{self.node_id}",
                lambda attempt: self._attempt(
                    x, root, None if timeout_s is None else deadline.remaining()
                ),
                deadline=deadline,
                on_retry=record_retry,
            )

    def _attempt(self, x: np.ndarray, root, timeout_s: Optional[float]) -> np.ndarray:
        """One serving attempt: seal, dispatch, open."""
        reply = self._gateway.dispatch(
            self._seal(x), self.user.principal_id, self.model_id, timeout_s=timeout_s
        )
        result = self._open(reply.output)
        if root is not None and reply.flavor is not None:
            root.set_attributes(flavor=reply.flavor, enclave_id=self.measurement.value)
        return result

    def _seal(self, x: np.ndarray) -> bytes:
        """``x`` sealed for the enclave, across the ``user->semirt`` wire."""
        return maybe_wire(
            self._injector,
            "user->semirt",
            self.user.encrypt_request(self.model_id, self.measurement, x),
        )

    def _open(self, enc_response: bytes) -> np.ndarray:
        """A sealed output, across the ``semirt->user`` wire, opened."""
        return self.user.decrypt_response(
            self.model_id,
            self.measurement,
            maybe_wire(self._injector, "semirt->user", enc_response),
        )

    def submit(self, x: np.ndarray) -> "SessionFuture":
        """Seal ``x`` and admit it asynchronously; poll the future.

        The async face of :meth:`infer`: the gateway admits the request
        and the call returns a :class:`SessionFuture` whose ``result()``
        blocks for the *opened* output.  Raises
        :class:`~repro.errors.QueueFull` synchronously when the gateway
        sheds -- admission is where backpressure surfaces.  The async
        path does not run under ``caller``: cancellation and retries
        belong to the caller.  With no span ambient, the request gets
        its own ``request`` root span (:meth:`_rooted`).
        """
        return self._rooted(
            "request",
            lambda: self._gateway.submit(
                self._seal(x), self.user.principal_id, self.model_id
            ),
            SessionFuture,
        )

    def stream(self, prompt: Sequence[int], max_new_tokens: int) -> "SessionStream":
        """Open an autoregressive stream; iterate decrypted token ids.

        The streaming face of :meth:`submit`: the prompt is sealed with
        the stream AAD and admitted through the gateway's stream entry
        (in process, stream-affinity routing keeps one user's streams
        on one continuous batch), and the returned :class:`SessionStream`
        authenticates, index-checks and opens the frames as they
        arrive.  ``result()`` blocks for the whole sequence.  Like
        :meth:`submit`, streams do not run under ``caller``; a
        mid-decode failure raises from the iterator.  With no span
        ambient, the stream gets its own ``stream`` root span.
        """

        def admit():
            enc_request = maybe_wire(
                self._injector,
                "user->semirt",
                self.user.encrypt_stream_request(
                    self.model_id, self.measurement, prompt, max_new_tokens
                ),
            )
            return self._gateway.open_stream(
                enc_request, self.user.principal_id, self.model_id
            )

        return self._rooted(
            "stream", admit, partial(SessionStream, max_new_tokens=max_new_tokens)
        )

    def _rooted(self, name: str, admit, handle_type):
        """``handle_type`` over ``admit()``, run under one root span.

        A caller's ambient span (``infer_many``'s ``request_batch``, or
        the caller's own) is root enough, and no tracer means no span.
        Otherwise a fresh ``name`` root is the ambient span while the
        request is sealed and admitted -- an in-process endpoint
        scheduler captures it then, so the worker's ECALL spans parent
        under it; over HTTP it is the request's ``x-client-span`` -- and
        the handle's decrypt spans attach it.  The root ends when the
        handle settles.
        """
        tracer = self._tracer
        if tracer is None or tracer.current_span() is not None:
            return handle_type(self, admit())
        root = tracer.start_span(name, **self._attributes)
        try:
            with tracer.attach(root):
                inner = admit()
        except BaseException:
            root.end(status="error")
            raise
        return handle_type(self, inner, root)

    def infer_many(
        self, xs: Sequence[np.ndarray], window: Optional[int] = None
    ) -> List[np.ndarray]:
        """Serve a batch, keeping up to ``window`` requests in flight.

        A sliding window over :meth:`submit`
        (:func:`~repro.core.futures.gather_windowed`); outputs come back
        in input order.  The default window is the gateway's
        ``feed_window`` for the first admitted request
        (:func:`~repro.core.batching.submit_window`): the admitting
        host's ``tcs_count``, widened to two full batches when its batch
        accumulator is armed -- the session *feeds* the batch window
        instead of racing it.  On :class:`~repro.errors.QueueFull` the
        oldest in-flight future is drained and the submit retried, so
        the batch absorbs its own backpressure.

        The batch runs under one ``request_batch`` root span; the
        per-request ECALL spans parent under it.  Like :meth:`submit`,
        the batch path does not run under ``caller`` -- a mid-batch
        failure re-raises from the failing :meth:`SessionFuture.result`.
        """
        with maybe_span(
            self._tracer, "request_batch", **self._attributes, count=len(xs)
        ) as root:

            def window_for(first: SessionFuture) -> int:
                width = max(
                    1, self._gateway.feed_window(first.inner) if window is None else window
                )
                if root is not None:
                    root.set_attributes(enclave_id=self.measurement.value, window=width)
                return width

            return gather_windowed(self.submit, xs, window_for)

    def close(self) -> None:
        """Close the gateway if the session owns it (in process: the
        one-endpoint gateway ``env.session`` built, sandbox reclaim).

        Shared gateways, attached hosts and the HTTP gateway are left
        running -- they belong to whoever made them.
        """
        if self._owns_gateway:
            self._gateway.close()

    def __enter__(self) -> "UserSession":
        """Context-manager entry: the session itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()


class _Rooted:
    """A session handle's root span (``None`` when the caller had one).

    The client-side decrypt spans run attached to it, and it ends when
    the handle settles -- with status ``error`` on a failure or an
    accepted cancel.
    """

    def _under_root(self):
        if self._root is None:
            return nullcontext()
        return self._session._tracer.attach(self._root)

    def _on_settle(self, error: Optional[BaseException], cancelled: bool) -> None:
        if self._root is not None:
            self._root.end(status="error" if error is not None or cancelled else "ok")


class SessionFuture(_Rooted, DerivedHandle):
    """An async session request: resolves to the **opened** output.

    Returned by :meth:`UserSession.submit`.  A
    :class:`~repro.core.futures.DerivedHandle` over the gateway's future
    of the sealed output (``inner``: a
    :class:`~repro.core.gateway.GatewaySubmission` in process, a
    :class:`~repro.service.client.HttpSubmission` over HTTP) whose map
    is the session's open -- so ``future.result()`` hands back the same
    plaintext array :meth:`UserSession.infer` would.
    """

    def __init__(self, session: UserSession, inner, root=None) -> None:
        super().__init__(inner)
        self._session = session
        self._root = root

    def _map(self, enc_response: bytes) -> np.ndarray:
        with self._under_root():
            return self._session._open(enc_response)


class SessionStream(_Rooted, TokenStream):
    """An async session stream: yields the **decrypted** token sequence.

    Returned by :meth:`UserSession.stream`: the client half of the
    streaming protocol (:class:`TokenStream` -- AEAD frame
    authentication, index and end-of-stream checks) over the gateway's
    stream of sealed frames (a
    :class:`~repro.core.gateway.GatewayStream` in process, a
    :class:`~repro.service.client.HttpStream` over HTTP), with the
    session's per-frame ``semirt->user`` wire fault site in front.
    """

    def __init__(
        self, session: UserSession, inner, root=None, *, max_new_tokens: int
    ) -> None:
        super().__init__(session, inner, max_new_tokens)
        self._root = root

    def _map_item(self, frame: bytes, index: int) -> dict:
        frame = maybe_wire(self._session._injector, "semirt->user", frame)
        with self._under_root():
            return super()._map_item(frame, index)
