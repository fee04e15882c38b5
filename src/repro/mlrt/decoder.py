"""Incremental (token-at-a-time) execution of decoder-only graphs.

A :class:`DecoderSession` binds the same op table the batch runtimes
execute, once per stream, at one time position: position-wise ops are
the table's own steps over an ``(1, 1, D)`` activation; the two stateful
ops are bound here -- ``embedding`` takes the running position (the
position-independent half of the sinusoid is computed once per width)
and every ``attention`` node keeps a key/value cache that grows by one
row per step.  Because the positional encodings are a pure function of
absolute position and the causal mask is implicit in the cache, a chain
of :meth:`step` calls reproduces full-context
:meth:`~repro.mlrt.model.Model.run_reference` execution -- the property
the parity tests pin down.  The graph is resolved once per model
(:meth:`Model.plan`) and the bound steps of a finished stream are handed
to the next one, so opening a stream costs microseconds, not a bind.

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


def _unstreamable(model: Model) -> List[str]:
    return sorted({node.op for node, op, *_ in model.plan().nodes if not op.streamable})


def streamable(model: Model) -> bool:
    """Whether every op in ``model`` supports incremental decoding."""
    return not _unstreamable(model)


def greedy(logits: np.ndarray) -> int:
    """Greedy sampling: the argmax token id of a logits row."""
    return int(np.argmax(logits))


@lru_cache(maxsize=8)
def _sinusoid(dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """The position-independent half of :func:`layers.positional_encoding`:
    each dimension's divisor and which dimensions take the sine."""
    dims = np.arange(dim, dtype=np.float32)[None, :]
    divisors = np.power(10000.0, (2 * (dims // 2)) / dim)
    sines = dims % 2 == 0
    divisors.setflags(write=False)
    sines.setflags(write=False)
    return divisors, sines


# The two stateful ops.  Same binder signature as the op table's, with
# the stream's state bound in front; the steps hold that state and not
# the session, so a dropped session is freed by reference count.


def _bind_embedding(clock: List[int], inputs, out, weights, attrs, workspace):
    """``layers.embedding(offset=clock[0])`` for one token."""
    (x,), (weight,) = inputs, weights
    gather = layers.bind_gather(x, weight, out, workspace)
    divisors, sines = _sinusoid(weight.shape[1])
    # two private rows: they only ever hold the sinusoid of a position
    encoding, sine = np.zeros((2,) + divisors.shape, dtype=np.float32)

    def step() -> None:
        gather()
        np.true_divide(np.float32(clock[0]), divisors, out=sine)
        np.cos(sine, out=encoding)
        np.sin(sine, out=sine)
        np.copyto(encoding, sine, where=sines)
        np.add(out, encoding, out=out)

    return step


def _bind_attention(caches: List[List[np.ndarray]], inputs, out, weights, attrs, workspace):
    """``layers.attention_step`` over one more ``[k, v]`` pair of ``caches``."""
    (x,), (wq, wk, wv, wo), heads = inputs, weights, attrs["heads"]
    qb, kb, vb, _, red, context, _ = workspace
    q, k_new, v_new = (layers._split_heads(b, heads) for b in (qb, kb, vb))
    scale = np.sqrt(np.float32(x.shape[2] // heads))
    merged = context.reshape(x.shape)  # one position: a view, not a copy
    kv: List[np.ndarray] = []
    caches.append(kv)

    def step() -> None:
        np.matmul(x, wq, out=qb)
        np.matmul(x, wk, out=kb)
        np.matmul(x, wv, out=vb)
        if kv:
            k = np.concatenate([kv[0], k_new], axis=2)
            v = np.concatenate([kv[1], v_new], axis=2)
        else:  # the first row attends over itself where it was computed
            k, v = k_new, v_new
        scores = np.matmul(q, k.transpose(0, 1, 3, 2))
        np.true_divide(scores, scale, out=scores)
        layers.softmax_into(scores, scores, red)
        np.matmul(scores, v, out=context)
        np.matmul(merged, wo, out=out)
        # the rows outlive the step; kb and vb are overwritten by the next
        kv[:] = (k, v) if kv else (k.copy(), v.copy())

    return step


def _bind_stream(model: Model) -> tuple:
    """Bind ``model`` at one time position over one flat scratch array.

    Returns ``(clock, caches, scratch, input, steps, output)``: the
    state cells the two stateful steps hold, then what they run over.
    """
    shapes = model.plan(_STEP_SHAPE).buffers
    # an even number of float32 slots each keeps the int64 token ids aligned
    sizes = [prod(shape) + prod(shape) % 2 for shape in shapes.values()]
    scratch = np.zeros(sum(sizes), dtype=np.float32)
    storage = {
        key: scratch[start : start + prod(shape)].reshape(shape)
        for (key, shape), start in zip(shapes.items(), accumulate(sizes, initial=0))
    }
    clock: List[int] = [0]
    caches: List[List[np.ndarray]] = []
    binders = {
        "embedding": partial(_bind_embedding, clock),
        "attention": partial(_bind_attention, caches),
    }
    return (clock, caches, scratch, *model.bind(storage, None, _STEP_SHAPE, binders))


class DecoderSession:
    """One autoregressive decode in progress: position + KV caches.

    :meth:`step` consumes one token id and returns the next-token logits;
    :meth:`prefill` folds a whole prompt in (the time-to-first-token
    cost).  State is the running position and one ``(k, v)`` cache pair
    per attention node -- ``kv_bytes`` is what a stream pins in enclave
    memory -- plus the activation scratch its steps write, which no
    other live stream shares.  Binding costs about 0.15 ms, so a dropped
    session parks its steps on the model's plan -- position reset, KV
    rows released, activation scratch zero-filled -- and the next stream
    of that model opens in microseconds by taking them over.
    """

    _bound: Optional[tuple] = None  # so __del__ is safe after a refused __init__

    def __init__(self, model: Model) -> None:
        unsupported = _unstreamable(model)
        if unsupported:
            raise ModelError(
                f"model {model.name!r} is not streamable: "
                f"op(s) {unsupported} cannot run incrementally"
            )
        if not model.nodes:
            raise ModelError("cannot stream an empty model")
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
        """Bytes pinned by the KV caches (the stream's EPC footprint)."""
        return sum(array.nbytes for kv in self._kv for array in kv)

    def step(self, token: int) -> np.ndarray:
        """Advance one position; returns the next-token logits row."""
        self._input[0, 0] = token
        for run in self._steps:
            run()
        self._clock[0] += 1
        return self._output.copy()

    def prefill(self, tokens: Iterable[int]) -> np.ndarray:
        """Consume a whole prompt; returns the last position's logits."""
        logits: Optional[np.ndarray] = None
        for token in tokens:
            logits = self.step(int(token))
        if logits is None:
            raise ModelError("cannot prefill an empty prompt")
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
