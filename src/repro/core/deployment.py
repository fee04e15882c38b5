"""End-to-end functional wiring of a SeSeMI deployment.

:class:`SeSeMIEnvironment` assembles the whole system -- attestation
service, SGX platforms, cloud storage, the KeyService enclave -- and
walks the three workflow stages of Section III:

1. *key setup*: owner/user attest KeyService, register, release keys;
2. *service deployment*: the owner encrypts + uploads models and deploys
   SeMIRT instances;
3. *request serving*: users encrypt requests, SeMIRT enclaves fetch keys
   via mutual attestation and execute inference.

The surface is the **session API**::

    env = SeSeMIEnvironment()
    handle = env.deploy(model, "ehr-model", owner="hospital")
    handle.grant("alice")
    with env.session("alice", "ehr-model") as session:
        y = session.infer(x)
        ys = session.infer_many(xs)   # keeps a multi-TCS enclave full

Every ``session.infer`` call produces a full span tree on
``env.tracer`` -- the first (cold) call covers all nine Figure-4 serving
stages, from sandbox/enclave start through result encryption.
:meth:`UserSession.infer_many` is a sliding window over
:meth:`UserSession.submit` (``docs/concurrency.md``), keeping up to
``tcs_count`` requests in flight.

This is the object the examples and integration tests build on.  It is
fully functional (real crypto, real models); the *performance* twin lives
in :mod:`repro.core.simbridge`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.client import OwnerClient, TokenStream, UserClient
from repro.core.futures import DerivedHandle, gather_windowed
from repro.core.gateway import GatewayConfig, HostLauncher, InferenceGateway
from repro.core.keyservice import KEYSERVICE_CONFIG, KeyServiceHost
from repro.core.semirt import SchedulerConfig, SemirtHost
from repro.core.semirt_enclave import (
    IsolationSettings,
    default_semirt_config,
    expected_semirt_measurement,
)
from repro.core.stages import Stage
from repro.errors import SeSeMIError
from repro.faults.injector import maybe_wire
from repro.faults.resilience import (
    CircuitBreaker,
    Deadline,
    ResilientCaller,
)
from repro.mlrt.model import Model
from repro.obs.tracer import Tracer, maybe_span
from repro.routing import FnPackerRouter, FnPool
from repro.serverless.storage import BlobStore
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import EnclaveBuildConfig
from repro.sgx.measurement import EnclaveMeasurement
from repro.sgx.platform import SGX2, HardwareProfile, SgxPlatform


class ModelHandle:
    """A deployed model, returned by :meth:`SeSeMIEnvironment.deploy`.

    Bundles the model id, the owning client, and the expected SeMIRT
    measurement ``E_S`` the deployment targets, so granting access is a
    single call instead of the grant/release/measure triple dance.
    """

    def __init__(
        self,
        env: "SeSeMIEnvironment",
        model: Model,
        model_id: str,
        owner: OwnerClient,
        framework: str = "tvm",
        config: Optional[EnclaveBuildConfig] = None,
        isolation: Optional[IsolationSettings] = None,
    ) -> None:
        self._env = env
        self.model = model
        self.model_id = model_id
        self.owner = owner
        self.framework = framework
        self.config = config
        self.isolation = isolation if isolation is not None else IsolationSettings()
        #: the enclave identity ``E_S`` grants are issued against
        self.measurement: EnclaveMeasurement = env.expected_semirt(
            framework, config, isolation
        )

    def grant(self, user: Union[UserClient, str]) -> "ModelHandle":
        """Authorise ``user`` for this model on the target enclave.

        Performs the owner's GRANT_ACCESS and the user's ADD_REQ_KEY in
        one step; returns ``self`` so grants chain fluently.
        """
        client = self._env.user(user)
        if client.principal_id is None:
            raise SeSeMIError("user must be registered first")
        self.owner.grant_access(self.model_id, self.measurement, client.principal_id)
        client.add_request_key(self.model_id, self.measurement)
        return self

    def revoke(self, user: Union[UserClient, str]) -> "ModelHandle":
        """Withdraw a previous grant (extension: REVOKE_ACCESS).

        Revocation is authoritative at KeyService; enclaves that have
        *memoised* this user's keys keep serving until their memo is
        dropped -- push that with
        :meth:`~repro.core.semirt.SemirtHost.invalidate_keys` (or the
        gateway-wide
        :meth:`~repro.core.gateway.InferenceGateway.invalidate_keys`)
        when immediate effect matters.
        """
        client = self._env.user(user)
        if client.principal_id is None:
            raise SeSeMIError("user must be registered first")
        self.owner.revoke_access(self.model_id, self.measurement, client.principal_id)
        return self

    def session(
        self, user: Union[UserClient, str], node_id: str = "worker-node"
    ) -> "UserSession":
        """A serving session for ``user`` against this deployment."""
        return self._env.session(
            user,
            self.model_id,
            framework=self.framework,
            node_id=node_id,
            config=self.config,
            isolation=self.isolation,
        )


class UserSession:
    """One user's serving session against a deployed model.

    The session lazily launches a SeMIRT instance on first
    :meth:`infer` (the cold start -- sandbox + enclave creation happen
    *inside* the traced request, so the cold span tree covers all nine
    Figure-4 stages) and reuses it afterwards (warm/hot paths).

    Passing a pre-launched ``semirt`` host instead *attaches* the
    session to a shared instance -- how several users multiplex one
    multi-TCS enclave.  The session still derives the expected enclave
    identity from ``(framework, config, isolation)`` and encrypts for
    that measurement: an attached host is never *trusted*, only used.
    Attached hosts are not torn down by :meth:`close`; if one dies, the
    session falls back to launching its own instance cold.

    Every request dispatches through an
    :class:`~repro.core.gateway.InferenceGateway`.  A plain session is
    the *degenerate* case -- a one-endpoint pool whose sole host the
    gateway launches lazily -- configured so failures surface to the
    session's own resilience layer exactly as before.  Passing a shared
    multi-endpoint ``gateway`` (from :meth:`SeSeMIEnvironment.gateway`)
    instead routes the session's requests across the gateway's whole
    endpoint fleet under the FnPacker policy.
    """

    def __init__(
        self,
        env: "SeSeMIEnvironment",
        user: UserClient,
        model_id: str,
        framework: str = "tvm",
        node_id: str = "worker-node",
        config: Optional[EnclaveBuildConfig] = None,
        isolation: Optional[IsolationSettings] = None,
        scheduler: Optional[SchedulerConfig] = None,
        semirt: Optional[SemirtHost] = None,
        gateway: Optional[InferenceGateway] = None,
    ) -> None:
        if user.principal_id is None:
            raise SeSeMIError("user must be registered first")
        self._env = env
        self.user = user
        self.model_id = model_id
        self.framework = framework
        self.node_id = node_id
        self.config = config
        self.isolation = isolation if isolation is not None else IsolationSettings()
        #: the enclave identity requests are encrypted for
        self.measurement: EnclaveMeasurement = env.expected_semirt(
            framework, config, self.isolation
        )
        self._caller: Optional[ResilientCaller] = None
        self._owns_gateway = gateway is None
        if gateway is not None:
            if semirt is not None:
                raise SeSeMIError("pass either semirt= or gateway=, not both")
            if model_id not in gateway.pool.models:
                raise SeSeMIError(
                    f"model {model_id!r} is not in pool {gateway.pool.name!r}"
                )
            self._gateway = gateway
        else:
            # The degenerate one-endpoint pool: the gateway launches the
            # session's own host lazily inside the first traced request,
            # and surfaces every failure (no redispatch, no breaker) so
            # the session-level resilience semantics stay unchanged.
            pool = FnPool(
                name=f"session:{model_id}@{node_id}",
                models=(model_id,),
                memory_budget=0,
                num_endpoints=1,
            )
            self._gateway = InferenceGateway(
                pool,
                env._launcher(framework, config, self.isolation, scheduler, node_id),
                config=GatewayConfig(redispatch_on_crash=False),
                tracer=env.tracer,
            )
            if semirt is not None:
                endpoint = self._gateway.router.endpoints()[0][0]
                self._gateway.attach(endpoint, semirt)

    @property
    def gateway(self) -> InferenceGateway:
        """The gateway this session dispatches through."""
        return self._gateway

    @property
    def semirt(self) -> Optional[SemirtHost]:
        """The live SeMIRT instance, or ``None`` before the first request.

        For a session on a shared multi-endpoint gateway this is the
        fleet's first live host (introspection only).
        """
        return self._gateway.primary_host()

    def infer(
        self,
        x: np.ndarray,
        timeout_s: Optional[float] = None,
    ) -> np.ndarray:
        """Encrypt ``x``, serve it, decrypt the result.

        The whole round trip runs under one ``request`` root span on
        ``env.tracer``; the first call additionally traces the sandbox
        and enclave start it triggers.

        When the environment carries an enabled
        :class:`~repro.faults.resilience.ResiliencePolicy`, transport
        failures are retried with backoff under a per-request budget
        (``timeout_s`` overrides the policy default -- the repo-wide
        wait keyword, seconds, ``None`` meaning the policy default
        here; see docs/service.md), guarded by the per-``(model,
        node)`` circuit breaker; a crashed SeMIRT enclave is relaunched
        cold on the next attempt.  Retries appear as ``retry`` events
        on the request's root span.
        """
        tracer = self._env.tracer
        policy = self._env.resilience
        with maybe_span(
            tracer,
            "request",
            model_id=self.model_id,
            user_id=self.user.principal_id,
            node_id=self.node_id,
        ) as root:
            if policy is None or not policy.enabled:
                result = self._attempt(x, root)
            else:
                caller = self._resilient_caller()
                deadline = Deadline(
                    caller.clock,
                    policy.deadline_s if timeout_s is None else timeout_s,
                )

                def record_retry(attempt, exc, delay):
                    if root is not None:
                        root.add_event(
                            "retry",
                            attempt=attempt,
                            error=type(exc).__name__,
                            backoff_s=delay,
                        )

                result = caller.call(
                    f"infer:{self.model_id}@{self.node_id}",
                    lambda attempt: self._attempt(x, root),
                    deadline=deadline,
                    on_retry=record_retry,
                )
        return result

    def submit(self, x: np.ndarray) -> "SessionFuture":
        """Encrypt ``x`` and admit it asynchronously; poll the future.

        The async face of :meth:`infer`: the request is routed and
        admitted through the gateway (:meth:`InferenceGateway.submit`)
        but the call returns immediately with a :class:`SessionFuture`
        whose ``result()`` blocks for the *decrypted* output.  Raises
        :class:`~repro.errors.QueueFull` synchronously when the whole
        fleet is saturated -- admission is where backpressure surfaces.
        Unlike :meth:`infer` the async path does not run under the
        resilience layer; cancellation and retries belong to the caller
        (the HTTP service tier builds exactly that on top).
        """
        enc_request = maybe_wire(
            self._env.injector,
            "user->semirt",
            self.user.encrypt_request(self.model_id, self.measurement, x),
        )
        return SessionFuture(
            self,
            self._gateway.submit(enc_request, self.user.principal_id, self.model_id),
        )

    def stream(
        self, prompt: Sequence[int], max_new_tokens: int
    ) -> "SessionStream":
        """Open an autoregressive stream; iterate decrypted token ids.

        The streaming face of :meth:`submit`: the prompt is sealed with
        the stream AAD, admitted through the gateway's stream plane
        (stream-affinity routing keeps one user's streams on one
        continuous batch), and the returned :class:`SessionStream`
        yields token ids as the enclave decodes them.  ``result()``
        blocks for the whole sequence -- the
        :class:`~repro.core.futures.Future` view.  Like :meth:`submit`,
        streams do not run under the resilience layer; a mid-decode
        failure raises from the iterator.
        """
        enc_request = maybe_wire(
            self._env.injector,
            "user->semirt",
            self.user.encrypt_stream_request(
                self.model_id, self.measurement, prompt, max_new_tokens
            ),
        )
        return SessionStream(
            self,
            self._gateway.open_stream(
                enc_request, self.user.principal_id, self.model_id
            ),
        )

    def infer_many(
        self, xs: Sequence[np.ndarray], window: Optional[int] = None
    ) -> List[np.ndarray]:
        """Serve a batch, keeping up to ``window`` requests in flight.

        A sliding window over :meth:`submit`
        (:func:`~repro.core.futures.gather_windowed`): every input is
        routed and admitted through the gateway like any other request,
        results are collected oldest-first, and outputs come back in
        input order.  The default window comes from the host that
        admitted the first request: its ``tcs_count``, widened to two
        full batches when its scheduler has the batch accumulator armed
        -- the session *feeds* the batch window instead of racing it, so
        a leader always finds followers queued behind it.  On
        :class:`~repro.errors.QueueFull` the oldest in-flight future is
        drained and the submit retried, so the batch absorbs its own
        backpressure.

        The batch runs under one ``request_batch`` root span; the
        per-request ECALL spans (carrying ``tcs_slot`` / ``queue_wait``)
        parent under it from the scheduler workers.  Unlike
        :meth:`infer`, the batch path does **not** run under the
        resilience layer -- a mid-batch failure re-raises from the
        failing :meth:`SessionFuture.result`.
        """
        with maybe_span(
            self._env.tracer,
            "request_batch",
            model_id=self.model_id,
            user_id=self.user.principal_id,
            node_id=self.node_id,
            count=len(xs),
        ) as root:

            def window_for(first: SessionFuture) -> int:
                admitted = first.inner  # the gateway's view of request 0
                width = window
                if width is None:
                    # the policy derives the window (two full clamped
                    # batches, floored at tcs_count), so tuning max_batch
                    # can never silently starve the accumulator
                    tcs_count = admitted.host.enclave.config.tcs_count
                    policy = admitted.host.batch_policy
                    width = (
                        policy.feed_window(tcs_count)
                        if policy is not None
                        else tcs_count
                    )
                width = max(1, width)
                if root is not None:
                    root.set_attributes(
                        flavor="cold" if admitted.decision.cold else "batch",
                        enclave_id=self.measurement.value,
                        window=width,
                    )
                return width

            return gather_windowed(self.submit, xs, window_for)

    def _attempt(self, x: np.ndarray, root) -> np.ndarray:
        """One serving attempt: encrypt, dispatch through the gateway, decrypt."""
        injector = self._env.injector
        enc_request = maybe_wire(
            injector,
            "user->semirt",
            self.user.encrypt_request(self.model_id, self.measurement, x),
        )
        reply = self._gateway.dispatch(
            enc_request, self.user.principal_id, self.model_id
        )
        enc_response = maybe_wire(injector, "semirt->user", reply.output)
        result = self.user.decrypt_response(
            self.model_id, self.measurement, enc_response
        )
        if root is not None:
            plan = reply.host.code.last_plan
            flavor = (
                "cold"
                if reply.decision.cold
                else (plan.kind.value if plan else "warm")
            )
            root.set_attributes(flavor=flavor, enclave_id=self.measurement.value)
        return result

    def _resilient_caller(self) -> ResilientCaller:
        """The session's retry driver, sharing the env-wide breaker."""
        if self._caller is None:
            self._caller = ResilientCaller(
                self._env.resilience,
                clock=self._env.tracer.clock,
                breaker=self._env.breaker_for(
                    f"{self.model_id}@{self.node_id}"
                ),
            )
        return self._caller

    def close(self) -> None:
        """Tear down the session's own gateway (sandbox reclaim).

        Owned hosts are destroyed; attached (shared) hosts and shared
        gateways are left running -- they belong to whoever launched
        them.
        """
        if self._owns_gateway:
            self._gateway.close()

    def __enter__(self) -> "UserSession":
        """Context-manager entry: the session itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: release the enclave."""
        self.close()


class SessionFuture(DerivedHandle):
    """An async session request: resolves to the **decrypted** output.

    Returned by :meth:`UserSession.submit`.  A
    :class:`~repro.core.futures.DerivedHandle` over the gateway's
    :class:`~repro.core.gateway.GatewaySubmission` (``inner``) whose map
    is the client-side half of the protocol -- response-wire fault
    injection and AEAD decryption -- so ``future.result()`` hands back
    the same plaintext array :meth:`UserSession.infer` would.
    """

    def __init__(self, session: UserSession, inner) -> None:
        super().__init__(inner)
        self._session = session

    def _map(self, enc_response: bytes) -> np.ndarray:
        session = self._session
        return session.user.decrypt_response(
            session.model_id,
            session.measurement,
            maybe_wire(session._env.injector, "semirt->user", enc_response),
        )


class SessionStream(TokenStream):
    """An async session stream: yields the **decrypted** token sequence.

    Returned by :meth:`UserSession.stream`: the client half of the
    streaming protocol (:class:`~repro.core.client.TokenStream` -- AEAD
    frame authentication, index and end-of-stream checks) over the
    gateway's stream of sealed frames, with the session's per-frame
    ``semirt->user`` wire fault injection in front of it.
    """

    def _map_item(self, frame: bytes, index: int) -> dict:
        frame = maybe_wire(self._session._env.injector, "semirt->user", frame)
        return super()._map_item(frame, index)


class SeSeMIEnvironment:
    """A complete functional SeSeMI deployment on one logical cluster.

    By default the environment builds its own single KeyService host; a
    pre-built endpoint (e.g. a
    :class:`~repro.core.keyfleet.FailoverEndpoint` over a
    :class:`~repro.core.keyfleet.KeyServiceFleet`) can be passed as
    ``keyservice`` instead, together with the ``attestation`` service it
    was provisioned against.  A
    :class:`~repro.faults.injector.FaultInjector` passed as ``injector`` threads
    into every wire and crash site on the serving path, and an enabled
    :class:`~repro.faults.resilience.ResiliencePolicy` turns on
    deadline/retry/breaker handling in :meth:`UserSession.infer`.
    """

    def __init__(
        self,
        hardware: HardwareProfile = SGX2,
        *,
        tracer: Optional[Tracer] = None,
        attestation: Optional[AttestationService] = None,
        keyservice=None,
        injector=None,
        resilience=None,
    ) -> None:
        #: wall-clock tracer shared by every component in the environment
        self.tracer = Tracer(service="sesemi") if tracer is None else tracer
        self.attestation = attestation or AttestationService()
        self.storage = BlobStore()
        if keyservice is None:
            self.keyservice_platform: Optional[SgxPlatform] = SgxPlatform(
                hardware, attestation_service=self.attestation,
                platform_id="keyservice-node",
            )
            self.keyservice = KeyServiceHost(
                self.keyservice_platform,
                self.attestation,
                KEYSERVICE_CONFIG,
                tracer=self.tracer,
            )
        else:
            self.keyservice_platform = getattr(keyservice, "platform", None)
            self.keyservice = keyservice
        #: optional :class:`repro.faults.injector.FaultInjector` shared by all sites
        self.injector = injector
        #: optional :class:`repro.faults.resilience.ResiliencePolicy`
        self.resilience = resilience
        self.hardware = hardware
        self._worker_platforms: Dict[str, SgxPlatform] = {}
        self._owners: Dict[str, OwnerClient] = {}
        self._users: Dict[str, UserClient] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker_for(self, endpoint: str) -> CircuitBreaker:
        """The shared circuit breaker guarding ``endpoint``.

        Sessions targeting the same ``model@node`` share one breaker, so
        a persistently failing instance trips for all of them at once.
        """
        if self.resilience is None:
            raise SeSeMIError("no resilience policy configured")
        breaker = self._breakers.get(endpoint)
        if breaker is None:
            breaker = CircuitBreaker(self.resilience.breaker, self.tracer.clock)
            self._breakers[endpoint] = breaker
        return breaker

    # -- principals ------------------------------------------------------------

    def connect_owner(self, name: str = "owner") -> OwnerClient:
        """Create an owner, attest KeyService, and register."""
        owner = OwnerClient(name, tracer=self.tracer)
        owner.connect(
            self.keyservice, self.attestation, self.keyservice.measurement,
            injector=self.injector,
        )
        owner.register()
        self._owners[name] = owner
        return owner

    def connect_user(self, name: str = "user") -> UserClient:
        """Create a user, attest KeyService, and register."""
        user = UserClient(name, tracer=self.tracer)
        user.connect(
            self.keyservice, self.attestation, self.keyservice.measurement,
            injector=self.injector,
        )
        user.register()
        self._users[name] = user
        return user

    def adopt_user(self, user: UserClient) -> UserClient:
        """Register an externally connected user with the environment.

        Used when the client performed its own (possibly replicated)
        registration -- e.g. against every home shard of a
        :class:`~repro.core.keyfleet.KeyServiceFleet` -- and only needs
        sessions from here.
        """
        if user.principal_id is None:
            raise SeSeMIError("user must be registered first")
        self._users[user.name] = user
        return user

    def owner(self, owner: Union[OwnerClient, str, None] = None) -> OwnerClient:
        """Resolve an owner: a client passes through, a name is cached.

        Unknown names are connected and registered on first use, so
        ``env.deploy(model, "m", owner="hospital")`` works in one line.
        """
        if isinstance(owner, OwnerClient):
            return owner
        name = owner or "owner"
        client = self._owners.get(name)
        return client if client is not None else self.connect_owner(name)

    def user(self, user: Union[UserClient, str, None] = None) -> UserClient:
        """Resolve a user like :meth:`owner` resolves owners."""
        if isinstance(user, UserClient):
            return user
        name = user or "user"
        client = self._users.get(name)
        return client if client is not None else self.connect_user(name)

    # -- session API -------------------------------------------------------------

    def deploy(
        self,
        model: Model,
        model_id: str,
        owner: Union[OwnerClient, str, None] = None,
        framework: str = "tvm",
        config: Optional[EnclaveBuildConfig] = None,
        isolation: Optional[IsolationSettings] = None,
    ) -> ModelHandle:
        """Encrypt + upload ``model`` and hand its key to KeyService.

        Returns a :class:`ModelHandle` whose :meth:`~ModelHandle.grant`
        authorises users and whose measurement pins the target enclave.
        """
        client = self.owner(owner)
        client.deploy_model(model, model_id, self.storage)
        client.add_model_key(model_id)
        return ModelHandle(
            self, model, model_id, client,
            framework=framework, config=config, isolation=isolation,
        )

    def session(
        self,
        user: Union[UserClient, str],
        model_id: str,
        framework: str = "tvm",
        node_id: str = "worker-node",
        config: Optional[EnclaveBuildConfig] = None,
        isolation: Optional[IsolationSettings] = None,
        scheduler: Optional[SchedulerConfig] = None,
        semirt: Optional[SemirtHost] = None,
        gateway: Optional[InferenceGateway] = None,
    ) -> UserSession:
        """A serving session for ``user`` against ``model_id``.

        ``scheduler`` tunes the TCS-slot scheduler of the session's own
        instance; ``semirt`` attaches the session to an already-running
        (shared, possibly multi-TCS) host instead of launching one;
        ``gateway`` (from :meth:`gateway`) dispatches the session's
        requests across a shared multi-endpoint fleet instead.
        """
        return UserSession(
            self,
            self.user(user),
            model_id,
            framework=framework,
            node_id=node_id,
            config=config,
            isolation=isolation,
            scheduler=scheduler,
            semirt=semirt,
            gateway=gateway,
        )

    def gateway(
        self,
        pool: FnPool,
        framework: str = "tvm",
        *,
        config: Optional[EnclaveBuildConfig] = None,
        isolation: Optional[IsolationSettings] = None,
        scheduler: Optional[SchedulerConfig] = None,
        gateway_config: Optional[GatewayConfig] = None,
    ) -> InferenceGateway:
        """An :class:`InferenceGateway` over live endpoints for ``pool``.

        Each endpoint gets its own worker platform (one logical invoker
        node per endpoint) and launches lazily on first use.  The router
        is FnPacker with ``slots_per_endpoint`` equal to the enclaves'
        TCS count -- derived here, where the enclave config is known,
        whatever ``gateway_config`` arms -- so the router keeps multi-TCS
        endpoints full instead of serialising them.  Sessions created
        with ``env.session(..., gateway=gw)`` must use the same
        ``(framework, config, isolation)`` triple -- that is the enclave
        identity their requests are encrypted for.
        """
        tcs_count = (config or default_semirt_config()).tcs_count
        return InferenceGateway(
            pool,
            self._launcher(framework, config, isolation, scheduler),
            config=gateway_config,
            router=FnPackerRouter(pool, slots_per_endpoint=tcs_count),
            tracer=self.tracer,
        )

    def _launcher(
        self,
        framework: str,
        config: Optional[EnclaveBuildConfig],
        isolation: Optional[IsolationSettings],
        scheduler: Optional[SchedulerConfig],
        node_id: Optional[str] = None,
    ) -> HostLauncher:
        """A gateway host launcher: the cold start of one endpoint.

        It runs inside the traced request that triggered the cold start,
        so the sandbox and enclave spans land under that request's root
        span.  Each endpoint is its own invoker node unless ``node_id``
        pins every launch to one (a session's own instance).
        """

        def launch(endpoint: str) -> SemirtHost:
            node = node_id or endpoint
            with maybe_span(
                self.tracer,
                f"stage:{Stage.SANDBOX_INIT.value}",
                stage=Stage.SANDBOX_INIT.value,
                node_id=node,
            ):
                self.worker_platform(node)
            # SemirtHost opens its own stage:enclave_init span
            return self.launch_semirt(framework, node, config, isolation, scheduler)

        return launch

    # -- worker instances --------------------------------------------------------

    def worker_platform(self, node_id: str = "worker-node") -> SgxPlatform:
        """An SGX platform standing in for one serverless invoker node."""
        platform = self._worker_platforms.get(node_id)
        if platform is None:
            platform = SgxPlatform(
                self.hardware,
                attestation_service=self.attestation,
                platform_id=node_id,
            )
            self._worker_platforms[node_id] = platform
        return platform

    def expected_semirt(
        self,
        framework: str,
        config: Optional[EnclaveBuildConfig] = None,
        isolation: Optional[IsolationSettings] = None,
    ) -> EnclaveMeasurement:
        """The ``E_S`` owners/users must grant (derived, not queried)."""
        return expected_semirt_measurement(
            framework,
            self.keyservice.measurement,
            config or default_semirt_config(),
            isolation,
        )

    def launch_semirt(
        self,
        framework: str,
        node_id: str = "worker-node",
        config: Optional[EnclaveBuildConfig] = None,
        isolation: Optional[IsolationSettings] = None,
        scheduler: Optional[SchedulerConfig] = None,
    ) -> SemirtHost:
        """Start a SeMIRT instance explicitly (what a cold sandbox does).

        Prefer :meth:`session` for the single-user serving path -- it
        launches lazily inside the traced request and pairs the
        measurement for you.  ``launch_semirt`` is the entry point for
        *shared* instances: launch one multi-TCS host here, then attach
        several sessions to it with ``env.session(..., semirt=host)``.
        """
        return SemirtHost(
            platform=self.worker_platform(node_id),
            storage=self.storage,
            keyservice_host=self.keyservice,
            framework=framework,
            attestation=self.attestation,
            config=config or default_semirt_config(),
            isolation=isolation,
            scheduler=scheduler,
            tracer=self.tracer,
            injector=self.injector,
        )
