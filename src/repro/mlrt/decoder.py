"""Incremental (token-at-a-time) execution of decoder-only graphs.

A :class:`DecoderSession` binds the same op table the batch runtimes
execute, once per stream, at one time position: position-wise ops are
the table's own steps over an ``(1, 1, D)`` activation; the two stateful
ops are bound here -- ``embedding`` adds the running position's row of
the sinusoid (each row computed once per position and width) and every
``attention`` node keeps a key/value cache that gains one row per step,
written in place into buffers that double when full.
Because the positional encodings are a pure function of absolute
position and the causal mask is implicit in the cache, a chain of
:meth:`step` calls reproduces full-context
:meth:`~repro.mlrt.model.Model.run_reference` execution -- the property
the parity tests pin down.  A prompt needs no step per token: it runs
as one pass of the plan bound at ``(1, T)`` -- the table's own binders,
so its logits are bit-equal to ``run_reference`` -- whose attention
nodes hand their key/value projections over as the caches' first rows.
The graph is resolved once per model (:meth:`Model.plan`), and the bound
steps of a finished stream, like a prompt's pass, are handed to the next
one, so opening a stream costs microseconds, not a bind.

Inside SeMIRT this object *is* the per-stream execution context: the KV
caches live in the enclave heap for the lifetime of the stream and are
released by ``EC_STREAM_CLOSE`` (see ``docs/streaming.md`` for the
EPC-pressure consequences).  Decoding is greedy (argmax) so the token
sequence is a deterministic function of prompt and weights.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import accumulate
from math import prod
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import ModelError
from repro.mlrt import layers
from repro.mlrt.model import Model

#: one time position of one sequence: the input shape every step is bound at
_STEP_SHAPE = (1, 1)
#: rows a stream's KV buffers start with: a prompt and a short answer fit
#: without regrowing, and a longer stream doubles from there
_KV_FIRST_ROWS = 16
#: positions whose sinusoid row stays memoised (of every width together):
#: a prompt and an answer of ``MAX_STREAM_TOKENS`` (1,024) each
_POSITION_ROWS = 2048


def streamable(model: Model) -> bool:
    """Whether every op in ``model`` supports incremental decoding."""
    return not model.plan().unstreamable


def greedy(logits: np.ndarray) -> int:
    """Greedy sampling: the argmax token id of a logits row."""
    return int(np.argmax(logits))


@lru_cache(maxsize=_POSITION_ROWS)
def _position(position: int, dim: int) -> np.ndarray:
    """Row ``position`` of the sinusoid at width ``dim``, read-only: it is
    :func:`layers.positional_encoding`'s own row, so a step adds the bits
    a full-context embedding adds."""
    row = layers.positional_encoding(1, dim, offset=position)
    row.setflags(write=False)
    return row


# The two stateful ops.  Same binder signature as the op table's, with
# the stream's state bound in front; the steps hold that state and not
# the session, so a dropped session is freed by reference count.


def _bind_embedding(clock: List[int], inputs, out, weights, attrs, workspace):
    """``layers.embedding(offset=clock[0])`` for one token."""
    (x,), (weight,) = inputs, weights
    lookup = layers.bind_one_hot(x, weight, out, workspace)
    dim = weight.shape[1]

    def step() -> None:
        lookup()
        np.add(out, _position(clock[0], dim), out=out)

    return step


def _bind_attention(
    clock: List[int], caches: List[List[np.ndarray]], inputs, out, weights, attrs, workspace
):
    """``layers.attention_step`` over one more row of a ``[k, v]`` pair of ``caches``.

    The pair is two ``(1, heads, capacity, D / heads)`` buffers; the step
    at position ``clock[0]`` writes its row there in place and attends
    over the filled prefix, a view.  A full buffer is replaced by one of
    twice the capacity (:data:`_KV_FIRST_ROWS` to start), so a stream
    of ``n`` tokens copies its rows ``log2 n`` times, not twice per step.
    """
    (x,), (wq, wk, wv, wo), heads = inputs, weights, attrs["heads"]
    qkv, _, red, context, _ = workspace
    wqkv = layers.qkv_weight(wq, wk, wv)
    q, k_new, v_new = layers.split_qkv(qkv, heads)
    scale = np.sqrt(np.float32(x.shape[2] // heads))
    merged = context.reshape(x.shape)  # one position: a view, not a copy
    kv: List[np.ndarray] = []
    caches.append(kv)

    def step() -> None:
        np.matmul(x, wqkv, out=qkv)
        rows = clock[0]
        if not kv or rows == kv[0].shape[2]:  # full: twice the capacity
            shape = (1, heads, max(2 * rows, _KV_FIRST_ROWS), k_new.shape[3])
            grown = [np.empty(shape, dtype=k_new.dtype) for _ in range(2)]
            for new, old in zip(grown, kv):
                new[:, :, :rows] = old
            kv[:] = grown
        keys, values = kv
        keys[:, :, rows : rows + 1] = k_new
        values[:, :, rows : rows + 1] = v_new
        k, v = keys[:, :, : rows + 1], values[:, :, : rows + 1]
        scores = np.matmul(q, k.transpose(0, 1, 3, 2))
        np.true_divide(scores, scale, out=scores)
        layers.softmax_into(scores, scores, red)
        np.matmul(scores, v, out=context)
        np.matmul(merged, wo, out=out)

    return step


def _carve(model: Model, input_shape: Tuple[int, ...]) -> tuple:
    """One zeroed float32 array holding every buffer of ``plan(input_shape)``.

    Returns ``(scratch, storage)``: the flat array, and its views keyed
    as :meth:`Model.bind` takes them.
    """
    shapes = model.plan(input_shape).buffers
    # an even number of float32 slots each keeps the int64 token ids aligned
    sizes = [prod(shape) + prod(shape) % 2 for shape in shapes.values()]
    scratch = np.zeros(sum(sizes), dtype=np.float32)
    storage = {
        key: scratch[start : start + prod(shape)].reshape(shape)
        for (key, shape), start in zip(shapes.items(), accumulate(sizes, initial=0))
    }
    return scratch, storage


def _bind_stream(model: Model) -> tuple:
    """Bind ``model`` at one time position over one flat scratch array.

    Returns ``(clock, caches, scratch, input, steps, output)``: the
    state cells the two stateful steps hold, then what they run over.
    """
    scratch, storage = _carve(model, _STEP_SHAPE)
    clock: List[int] = [0]
    caches: List[List[np.ndarray]] = []
    binders = {
        "embedding": partial(_bind_embedding, clock),
        "attention": partial(_bind_attention, clock, caches),
    }
    return (clock, caches, scratch, *model.bind(storage, None, _STEP_SHAPE, binders))


def _bind_prompt_attention(
    projected: List[List[np.ndarray]], inputs, out, weights, attrs, workspace
):
    """The table's own causal attention over a whole prompt, handing over
    its key/value projections, ``(1, heads, T, D / heads)`` views of its
    workspace: once the pass has run, they are the stream's first rows."""
    projected.append(layers.split_qkv(workspace[0], attrs["heads"])[1:])
    return layers._bind_attention(inputs, out, weights, attrs, workspace)


def _bind_prefill(model: Model, length: int) -> tuple:
    """Bind ``model`` at ``(1, length)``: a prompt's one pass from position 0.

    Returns ``(projected, scratch, input, steps, output)``.  Every op but
    ``attention`` is the table's own, the embedding included: its
    sinusoid starts at position 0, which is where a prompt starts.
    """
    shape = (1, length)
    scratch, storage = _carve(model, shape)
    projected: List[List[np.ndarray]] = []
    binders = {"attention": partial(_bind_prompt_attention, projected)}
    return (projected, scratch, *model.bind(storage, None, shape, binders))


class DecoderSession:
    """One autoregressive decode in progress: position + KV caches.

    :meth:`step` consumes one token id and returns the next-token logits;
    :meth:`prefill` folds a whole prompt in, in one pass (the
    time-to-first-token cost).  State is the running position and one
    ``(k, v)`` cache pair per attention node -- ``kv_bytes``, the
    capacity those buffers hold, is what a stream pins in enclave memory
    -- plus the activation scratch its steps write, which no other live
    stream shares.  Binding costs about 0.15 ms, so a dropped
    session parks its steps on the model's plan -- position reset, KV
    rows released, activation scratch zero-filled -- and the next stream
    of that model opens in microseconds by taking them over.
    """

    _bound: Optional[tuple] = None  # so __del__ is safe after a refused __init__

    def __init__(self, model: Model) -> None:
        unsupported = model.plan().unstreamable  # decided once, with the plan
        if unsupported:
            raise ModelError(
                f"model {model.name!r} is not streamable: "
                f"op(s) {unsupported} cannot run incrementally"
            )
        if not model.nodes:
            raise ModelError("cannot stream an empty model")
        self._model, self._ctx = model, model.input_spec.shape[1]
        self._idle = model.plan(_STEP_SHAPE).idle
        try:
            self._bound = self._idle.pop()
        except IndexError:
            self._bound = _bind_stream(model)
        (self._clock, self._kv, self._scratch,
         self._input, self._steps, self._output) = self._bound

    def __del__(self) -> None:
        if self._bound is not None:
            self._clock[0] = 0
            for kv in self._kv:
                kv.clear()
            self._scratch.fill(0)
            self._idle.append(self._bound)

    @property
    def position(self) -> int:
        """Tokens consumed so far (prompt + generated)."""
        return self._clock[0]

    @property
    def kv_bytes(self) -> int:
        """Bytes the KV cache buffers hold (the stream's EPC footprint):
        their capacity, at most twice the rows filled."""
        return sum(array.nbytes for kv in self._kv for array in kv)

    def step(self, token: int) -> np.ndarray:
        """Advance one position; returns the next-token logits row."""
        self._input[0, 0] = token
        for run in self._steps:
            run()
        self._clock[0] += 1
        return self._output.copy()

    def prefill(self, tokens: Iterable[int]) -> np.ndarray:
        """Consume a whole prompt; returns the last position's logits.

        A fresh session runs a prompt of ``2 <= T <= ctx`` tokens (``ctx``
        being the model's declared sequence length) as one pass of the
        plan bound at ``(1, T)`` -- the logits are bit-equal to
        :meth:`Model.run_reference` on the prompt -- and steps through
        whatever is left; a 1-token prompt, or a session already past
        position 0, steps through all of it.
        """
        prompt = [int(token) for token in tokens]
        if not prompt:
            raise ModelError("cannot prefill an empty prompt")
        head = min(len(prompt), self._ctx) if self._clock[0] == 0 else 0
        if head < 2:  # one token is one step: there is nothing to pass
            head = 0
        logits = self._pass(prompt[:head]) if head else None
        for token in prompt[head:]:
            logits = self.step(token)
        return logits

    def _pass(self, prompt: List[int]) -> np.ndarray:
        """Run ``prompt`` from position 0 as one pass; its K/V rows seed the caches.

        The pass is parked again, zero-filled, on ``plan((1, T)).idle`` --
        one per prompt length, so at most ``ctx - 1`` stay bound per model.
        """
        idle = self._model.plan((1, len(prompt))).idle
        try:
            bound = idle.pop()
        except IndexError:
            bound = _bind_prefill(self._model, len(prompt))
        projected, scratch, inputs, steps, output = bound
        inputs[0] = prompt
        for run in steps:
            run()
        rows = len(prompt)
        # the capacity stepwise doubling would have reached by now
        capacity = max(_KV_FIRST_ROWS, 1 << (rows - 1).bit_length())
        for kv, views in zip(self._kv, projected):
            kv[:] = [np.empty(v.shape[:2] + (capacity,) + v.shape[3:], v.dtype) for v in views]
            for cache, view in zip(kv, views):
                cache[:, :, :rows] = view
        self._clock[0] = rows
        logits = output.copy()
        scratch.fill(0)
        if not idle:
            idle.append(bound)
        return logits

    def generate(self, prompt: Iterable[int], max_new_tokens: int) -> List[int]:
        """Greedy-decode ``max_new_tokens`` after ``prompt`` (reference/test)."""
        if max_new_tokens < 1:
            raise ModelError("max_new_tokens must be at least 1")
        token = greedy(self.prefill(prompt))
        produced = [token]
        while len(produced) < max_new_tokens:
            token = greedy(self.step(token))
            produced.append(token)
        return produced
