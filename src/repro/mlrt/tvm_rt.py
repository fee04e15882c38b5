"""TVM-style graph executor.

TVM's graph runtime binds every weight into pre-allocated runtime storage
at initialisation and keeps all intermediate buffers allocated for the
lifetime of the executor.  Consequently its runtime buffer "also contains
copies of the model data" (Table I commentary), which is why TVM's
enclave memory footprint is so much larger than TFLM's -- the effect the
memory experiments measure.  Here that is literal: ``RUNTIME_INIT``
copies the weights and binds each node to a step over one resident
buffer per activation and per workspace (padded copies, column
matrices, reductions), none of them ever reused by another node;
``MODEL_EXEC`` calls the steps and allocates nothing.  Binding the
benchmark's MobileNet takes about 0.15 ms on the development VM.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.mlrt.framework import InferenceFramework, ModelRuntime, register_framework
from repro.mlrt.model import Model


class TvmGraphExecutor(ModelRuntime):
    """Graph executor with weight copies and fully-resident buffers."""

    def __init__(self, model: Model) -> None:
        # Bind parameters: TVM copies weights into runtime-owned storage.
        self._params: Dict[str, np.ndarray] = {
            name: array.copy() for name, array in model.weights.items()
        }
        # One buffer per tensor and per workspace for the whole graph.
        buffers = {
            key: np.zeros(shape, dtype=np.float32)
            for key, shape in model.plan().buffers.items()
        }
        super().__init__(model, buffers, buffers.values(), self._params)

    @property
    def buffer_bytes(self) -> int:
        """Weight copies + every resident buffer (matches Table I's shape)."""
        return sum(p.nbytes for p in self._params.values()) + super().buffer_bytes


class TvmFramework(InferenceFramework):
    """The TVM integration (``name == "tvm"``)."""

    name = "tvm"

    def create_runtime(self, model: Model) -> TvmGraphExecutor:
        """RUNTIME_INIT: copy parameters, allocate all buffers, bind the steps."""
        return TvmGraphExecutor(model)


register_framework(TvmFramework())
