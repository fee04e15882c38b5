"""The nine model-serving stages (Figure 4) and invocation-path planning.

Both SeMIRT implementations -- the functional enclave code in
:mod:`repro.core.semirt_enclave` and the simulation actor in
:mod:`repro.core.simbridge` -- share :func:`plan_invocation`, so the
cold/warm/hot semantics of Algorithm 2 exist in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple


class Stage(str, Enum):
    """The serving stages of Figure 4, in order."""

    SANDBOX_INIT = "sandbox_init"
    ENCLAVE_INIT = "enclave_init"
    KEY_RETRIEVAL = "key_retrieval"
    MODEL_LOADING = "model_loading"
    MODEL_DECRYPT = "model_decryption"
    RUNTIME_INIT = "runtime_init"
    REQUEST_DECRYPT = "request_decryption"
    MODEL_INFERENCE = "model_inference"
    RESULT_ENCRYPT = "result_encryption"


#: stages every invocation pays regardless of cache state
PER_REQUEST_STAGES: Tuple[Stage, ...] = (
    Stage.REQUEST_DECRYPT,
    Stage.MODEL_INFERENCE,
    Stage.RESULT_ENCRYPT,
)

#: stages that depend on the serving model (amortisable across requests)
MODEL_STAGES: Tuple[Stage, ...] = (
    Stage.KEY_RETRIEVAL,
    Stage.MODEL_LOADING,
    Stage.MODEL_DECRYPT,
    Stage.RUNTIME_INIT,
)


class InvocationKind(str, Enum):
    """The three ways SeMIRT handles a request (Section IV-B)."""

    COLD = "cold"
    WARM = "warm"
    HOT = "hot"


@dataclass
class SemirtCacheState:
    """What a SeMIRT enclave retains between invocations.

    Mirrors Algorithm 2's globals: the loaded ``Model``, the last
    ``<uid, M_oid>`` key-cache entry ``KC``, plus whether a runtime for
    the current model exists on the serving thread.  ``enclave_ready``
    distinguishes a cold container (no enclave yet) from a warm one.
    """

    enclave_ready: bool = False
    loaded_model: Optional[str] = None           # M_oid of the decrypted model
    key_cache: Optional[Tuple[str, str]] = None  # (M_oid, uid) of cached keys
    runtime_for: Optional[str] = None            # M_oid the thread runtime serves

    def note_served(self, model_id: str, user_id: str) -> None:
        """Record the state after successfully serving a request."""
        self.enclave_ready = True
        self.loaded_model = model_id
        self.key_cache = (model_id, user_id)
        self.runtime_for = model_id


@dataclass(frozen=True)
class InvocationPlan:
    """Which stages a request must execute, and its path classification."""

    kind: InvocationKind
    stages: Tuple[Stage, ...]

    def needs(self, stage: Stage) -> bool:
        """True when this plan executes ``stage``."""
        return stage in self.stages


def plan_invocation(
    state: SemirtCacheState,
    model_id: str,
    user_id: str,
    *,
    key_cache_enabled: bool = True,
    reuse_runtime: bool = True,
) -> InvocationPlan:
    """Decide the invocation path for a request (Algorithm 2, lines 6-15).

    - **cold**: the enclave itself must be created first;
    - **warm**: enclave alive, but the target model is not loaded (or the
      runtime must be rebuilt);
    - **hot**: model loaded, runtime ready, and the key cache holds this
      exact ``<uid, M_oid>`` pair.

    ``key_cache_enabled=False`` and ``reuse_runtime=False`` express the
    strong-isolation build of Section V (measured in Table II): keys are
    re-fetched and the runtime re-initialised on every request.
    """
    stages: List[Stage] = []
    if not state.enclave_ready:
        stages.append(Stage.ENCLAVE_INIT)
    keys_cached = (
        key_cache_enabled
        and state.key_cache == (model_id, user_id)
        and state.enclave_ready
    )
    if not keys_cached:
        stages.append(Stage.KEY_RETRIEVAL)
    model_loaded = state.enclave_ready and state.loaded_model == model_id
    if not model_loaded:
        stages.append(Stage.MODEL_LOADING)
        stages.append(Stage.MODEL_DECRYPT)
    runtime_ready = (
        reuse_runtime and model_loaded and state.runtime_for == model_id
    )
    if not runtime_ready:
        stages.append(Stage.RUNTIME_INIT)
    stages.extend(PER_REQUEST_STAGES)

    if not state.enclave_ready:
        kind = InvocationKind.COLD
    elif model_loaded and runtime_ready and keys_cached:
        kind = InvocationKind.HOT
    else:
        kind = InvocationKind.WARM
    return InvocationPlan(kind=kind, stages=tuple(stages))
