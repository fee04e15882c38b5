"""Common inference-framework interface (SeMIRT's integration surface).

SeMIRT integrates a framework through four calls -- ``MODEL_LOAD``,
``RUNTIME_INIT``, ``MODEL_EXEC``, ``PREPARE_OUTPUT`` (Figure 5) -- and
that is exactly the surface expressed here: a framework deserialises a
model artifact, creates per-thread runtimes, executes, and serialises
outputs.  Execution is one shared body (:meth:`ModelRuntime.execute`);
frameworks differ in *memory behaviour* only -- where weights,
activations and workspace live -- and ``buffer_bytes`` reports how much
working memory a runtime pins inside the enclave, which drives every
memory experiment in the paper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from repro.errors import ModelError
from repro.mlrt.model import Model


class ModelRuntime:
    """A per-thread execution context bound to one loaded model.

    ``RUNTIME_INIT`` (the constructor) binds every node of the model once
    to a zero-argument step over storage the framework chooses -- where
    that storage lives is the only thing the two frameworks differ in --
    and ``MODEL_EXEC`` (:meth:`execute`) runs the steps.  Nothing is
    allocated, looked up or dispatched per request, and the step list
    and every buffer are the same whatever the input holds.
    """

    def __init__(
        self,
        model: Model,
        storage: Mapping[str, np.ndarray],
        owned: Iterable[np.ndarray],
        weights: Optional[Mapping[str, np.ndarray]] = None,
    ) -> None:
        self.model = model
        #: every array behind ``storage`` (never the weights)
        self._owned = owned
        self._last_output: np.ndarray | None = None
        self._input, self._steps, self._output = model.bind(storage, weights)

    def execute(self, x: np.ndarray) -> np.ndarray:
        """Run inference on a single input batch of exactly the model's shape."""
        if np.shape(x) != self.model.input_spec.shape:
            raise ModelError(
                f"input shape {np.shape(x)} does not match model "
                f"{self.model.input_spec.shape}"
            )
        self._input[...] = x
        for step in self._steps:
            step()
        self._last_output = self._output.copy()
        return self._last_output

    @property
    def buffer_bytes(self) -> int:
        """Working memory this runtime pins (excludes the loaded model)."""
        return sum(array.nbytes for array in self._owned)

    def prepare_output(self) -> bytes:
        """Serialise the last output to bytes (Figure 5's PREPARE_OUTPUT)."""
        if self._last_output is None:
            raise ModelError("no output available; call execute() first")
        return self._last_output.astype(np.float32).tobytes()

    def clear(self) -> None:
        """Drop per-request state (the strong-isolation reset of Section V).

        Zero-fills the input buffer, every activation and every
        workspace, so nothing of the previous request stays readable.
        """
        self._last_output = None
        for array in self._owned:
            array.fill(0)


class InferenceFramework(ABC):
    """A model inference framework integrated with SeMIRT."""

    name: str

    @abstractmethod
    def create_runtime(self, model: Model) -> ModelRuntime:
        """RUNTIME_INIT: build a fresh per-thread runtime for ``model``."""

    def load_model(self, artifact: bytes) -> Model:
        """MODEL_LOAD (plaintext half): deserialise a model artifact."""
        return Model.deserialize(artifact)


_REGISTRY: Dict[str, InferenceFramework] = {}


def register_framework(framework: InferenceFramework) -> InferenceFramework:
    """Register a framework instance under its name."""
    _REGISTRY[framework.name] = framework
    return framework


def get_framework(name: str) -> InferenceFramework:
    """Look up a registered framework (``"tvm"`` or ``"tflm"`` built in)."""
    # Built-ins register on import; import them lazily (cheap after the
    # first call) to avoid an import cycle with the runtime modules.
    from repro.mlrt import tflm_rt, tvm_rt  # noqa: F401

    try:
        return _REGISTRY[name]
    except KeyError:
        raise ModelError(
            f"unknown inference framework {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
