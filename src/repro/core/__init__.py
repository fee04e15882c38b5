"""SeSeMI core: KeyService, SeMIRT, FnPacker, clients, and their sim twins."""

from repro.core.batching import (
    BatchingSemirtActor,
    BatchPolicy,
    batching_semirt_factory,
)
from repro.core.client import KeyServiceConnection, OwnerClient, UserClient
from repro.core.costs import CostModel
from repro.core.deployment import (
    ModelHandle,
    SeSeMIEnvironment,
    SessionStream,
    UserSession,
)
from repro.core.futures import Future
from repro.core.gateway import (
    GatewayConfig,
    GatewayReply,
    GatewayStream,
    GatewaySubmission,
    InferenceGateway,
    RouteDecision,
)
from repro.core.keyfleet import KeyServiceFleet
from repro.core.keyservice import (
    KEYSERVICE_CONFIG,
    KeyServiceEnclaveCode,
    KeyServiceHost,
    expected_keyservice_measurement,
)
from repro.core.packer_service import FnPackerService, make_router
from repro.core.semirt import (
    InferenceFuture,
    InferenceStream,
    SchedulerConfig,
    SemirtHost,
)
from repro.core.semirt_enclave import (
    IsolationSettings,
    SemirtEnclaveCode,
    default_semirt_config,
    expected_semirt_measurement,
)
from repro.core.simbridge import (
    IsoReuseSimActor,
    NativeSimActor,
    SemirtSimActor,
    ServableModel,
    UntrustedSimActor,
    iso_reuse_factory,
    native_factory,
    semirt_factory,
    servable_map,
    untrusted_factory,
)
from repro.core.stages import (
    InvocationKind,
    InvocationPlan,
    SemirtCacheState,
    Stage,
    plan_invocation,
)
from repro.routing import (
    AllInOneRouter,
    FnPackerRouter,
    FnPool,
    OneToOneRouter,
    Router,
)

__all__ = [
    "KEYSERVICE_CONFIG",
    "AllInOneRouter",
    "BatchPolicy",
    "BatchingSemirtActor",
    "CostModel",
    "FnPackerRouter",
    "FnPackerService",
    "FnPool",
    "Future",
    "GatewayConfig",
    "GatewayReply",
    "GatewayStream",
    "GatewaySubmission",
    "InferenceFuture",
    "InferenceGateway",
    "InferenceStream",
    "InvocationKind",
    "InvocationPlan",
    "IsoReuseSimActor",
    "IsolationSettings",
    "KeyServiceConnection",
    "KeyServiceEnclaveCode",
    "KeyServiceFleet",
    "KeyServiceHost",
    "ModelHandle",
    "NativeSimActor",
    "OneToOneRouter",
    "OwnerClient",
    "RouteDecision",
    "Router",
    "SchedulerConfig",
    "SeSeMIEnvironment",
    "SemirtCacheState",
    "SemirtEnclaveCode",
    "SemirtHost",
    "SemirtSimActor",
    "ServableModel",
    "SessionStream",
    "Stage",
    "UntrustedSimActor",
    "UserClient",
    "UserSession",
    "batching_semirt_factory",
    "default_semirt_config",
    "expected_keyservice_measurement",
    "expected_semirt_measurement",
    "iso_reuse_factory",
    "make_router",
    "native_factory",
    "plan_invocation",
    "semirt_factory",
    "servable_map",
    "untrusted_factory",
]
