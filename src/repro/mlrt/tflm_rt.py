"""TFLM-style interpreter with a planned tensor arena.

TFLM executes out of a single statically-planned arena that holds only
*working* tensors -- weights are read in place from the loaded model.
The arena planner reuses the bytes of dead tensors, so the runtime buffer
is a fraction of the model size (Table I: 5 MB vs a 17 MB model for
MBNET).  ``RUNTIME_INIT`` plans the arena and binds each node to a step
whose input, output and workspace are views into it; a workspace lives
for its own node only (TFLM's ``RequestScratchBufferInArena``), so the
planner hands its bytes to later tensors.  ``MODEL_EXEC`` is the same
body as the TVM executor's: the frameworks differ in where storage
lives, not in what they run.
"""

from __future__ import annotations

from math import prod
from typing import Dict, Tuple

import numpy as np

from repro.mlrt.arena import ArenaPlan, TensorLife, plan_arena
from repro.mlrt.framework import InferenceFramework, ModelRuntime, register_framework
from repro.mlrt.model import Model
from repro.mlrt.tensor import DTYPE_SIZES


def plan_model_arena(model: Model) -> ArenaPlan:
    """Arena offsets for the input, every intermediate and every workspace."""
    plan = model.plan()
    first_use: Dict[str, int] = {"input": 0}
    last_use: Dict[str, int] = {}
    for index, (node, _, _, workspace) in enumerate(plan.nodes):
        # a workspace lives for its own node only: no last_use entry
        first_use.update(dict.fromkeys((node.name, *workspace), index))
        last_use.update(dict.fromkeys(node.inputs, index))
    last_use[model.output_node] = len(plan.nodes)  # output survives the whole run
    return plan_arena(
        [
            TensorLife(key, _nbytes(plan.buffers[key]), first, last_use.get(key, first))
            for key, first in first_use.items()
        ]
    )


def _nbytes(shape: Tuple[int, ...]) -> int:
    return prod(shape) * DTYPE_SIZES["float32"]


class TflmInterpreter(ModelRuntime):
    """Interpreter executing out of a single tensor arena.

    ``buffer_bytes`` is the arena alone: working tensors, no weight copies.
    """

    def __init__(self, model: Model) -> None:
        plan = plan_model_arena(model)
        arena = np.zeros(plan.total_bytes, dtype=np.uint8)
        views = {
            key: arena[plan.offsets[key] :][: _nbytes(shape)].view(np.float32).reshape(shape)
            for key, shape in model.plan().buffers.items()
        }
        # Weights are *not* copied -- the steps read them in place.
        super().__init__(model, views, (arena,))


class TflmFramework(InferenceFramework):
    """The TFLM integration (``name == "tflm"``)."""

    name = "tflm"

    def create_runtime(self, model: Model) -> TflmInterpreter:
        """RUNTIME_INIT: plan an arena and bind the steps into it."""
        return TflmInterpreter(model)


register_framework(TflmFramework())
