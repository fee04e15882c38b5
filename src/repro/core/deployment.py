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
stages, from sandbox/enclave start through result encryption.  The
session itself -- sealing, opening, root spans, resilience -- is
:class:`~repro.core.client.UserSession`, the one class both transports
hand out; this module builds the in-process gateway it dispatches
through (:meth:`SeSeMIEnvironment.session`).

This is the object the examples and integration tests build on.  It is
fully functional (real crypto, real models); the *performance* twin lives
in :mod:`repro.core.simbridge`.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.core.client import OwnerClient, UserClient, UserSession
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
from repro.faults.resilience import CircuitBreaker, ResilientCaller
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
    ) -> UserSession:
        """A serving session for ``user`` against this deployment."""
        return self._env.session(
            user,
            self.model_id,
            framework=self.framework,
            node_id=node_id,
            config=self.config,
            isolation=self.isolation,
        )


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
    deadline/retry/breaker handling in
    :meth:`~repro.core.client.UserSession.infer`.
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

        Requests are sealed for the enclave identity the
        ``(framework, config, isolation)`` triple derives -- an attached
        or shared host is never *trusted*, only used.  By default the
        session dispatches through its own *degenerate* gateway: a
        one-endpoint pool whose host launches lazily inside the first
        traced request (so the cold span tree covers all nine Figure-4
        stages; ``scheduler`` tunes that host), configured to surface
        every failure (no redispatch) so the session's own resilience
        layer keeps the retry decision, and closed with the session.
        ``semirt`` binds an already-running (shared, possibly multi-TCS)
        host to that endpoint instead -- how several users multiplex one
        enclave; it is left running on close, and if it dies the
        gateway relaunches the endpoint cold.  ``gateway`` (from
        :meth:`gateway`) dispatches across a shared multi-endpoint fleet
        under the FnPacker policy instead.
        """
        client = self.user(user)
        owns_gateway = gateway is None
        if gateway is not None:
            if semirt is not None:
                raise SeSeMIError("pass either semirt= or gateway=, not both")
            if model_id not in gateway.pool.models:
                raise SeSeMIError(
                    f"model {model_id!r} is not in pool {gateway.pool.name!r}"
                )
        else:
            pool = FnPool(
                name=f"session:{model_id}@{node_id}",
                models=(model_id,),
                memory_budget=0,
                num_endpoints=1,
            )
            gateway = InferenceGateway(
                pool,
                self._launcher(framework, config, isolation, scheduler, node_id),
                config=GatewayConfig(redispatch_on_crash=False),
                tracer=self.tracer,
            )
            if semirt is not None:
                gateway.attach(gateway.router.endpoints()[0][0], semirt)
        caller = None
        if self.resilience is not None:
            caller = ResilientCaller(
                self.resilience,
                clock=self.tracer.clock,
                breaker=self.breaker_for(f"{model_id}@{node_id}"),
            )
        return UserSession(
            gateway,
            client,
            model_id,
            self.expected_semirt(framework, config, isolation),
            node_id=node_id,
            tracer=self.tracer,
            injector=self.injector,
            caller=caller,
            owns_gateway=owns_gateway,
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
