"""Neural-network operators implemented with numpy, and the op table.

Each operator is one row of :data:`OPS`: its weight names, a shape rule,
a pure reference function (the oracle :meth:`Model.run_reference` walks
the graph with) and a *binder* that turns the same arithmetic into a
zero-argument step over pre-allocated buffers.  Both runtimes and the
incremental decoder execute bound steps from this one table, which is
what guarantees they compute identical results -- identical to each
other and, bit for bit, to the reference (``tests/mlrt/test_bound_plan.py``).

Layout is NHWC, matching both TFLM and the paper's TVM builds.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError


def _pad_hw(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Extract (N, OH, OW, KH*KW*C) patches from an NHWC tensor."""
    n, h, w, c = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    strides = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, oh, ow, kh, kw, c),
        strides=(
            strides[0],
            strides[1] * stride,
            strides[2] * stride,
            strides[1],
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    return windows.reshape(n, oh, ow, kh * kw * c)


# ---------------------------------------------------------------------------
# forward implementations
# ---------------------------------------------------------------------------


def conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, *, stride: int, pad: int) -> np.ndarray:
    """2-D convolution; weight layout (KH, KW, CIN, COUT)."""
    kh, kw, cin, cout = weight.shape
    x = _pad_hw(x, pad)
    cols = _im2col(x, kh, kw, stride)
    out = cols @ weight.reshape(kh * kw * cin, cout)
    return (out + bias).astype(np.float32)


def depthwise_conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, *, stride: int, pad: int) -> np.ndarray:
    """Depthwise convolution; weight layout (KH, KW, C)."""
    kh, kw, c = weight.shape
    x = _pad_hw(x, pad)
    cols = _im2col(x, kh, kw, stride)  # (N, OH, OW, KH*KW*C)
    n, oh, ow, _ = cols.shape
    cols = cols.reshape(n, oh, ow, kh * kw, c)
    out = np.einsum("nhwkc,kc->nhwc", cols, weight.reshape(kh * kw, c))
    return (out + bias).astype(np.float32)


def dense(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Fully-connected layer; weight layout (IN, OUT)."""
    return (x.reshape(x.shape[0], -1) @ weight + bias).astype(np.float32)


def batch_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Inference-time batch norm with folded scale/shift."""
    return (x * scale + shift).astype(np.float32)


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0.0)


def relu6(x: np.ndarray) -> np.ndarray:
    """Elementwise clip(x, 0, 6) (MobileNet's activation)."""
    return np.clip(x, 0.0, 6.0)


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise addition (residual connections)."""
    return (a + b).astype(np.float32)


def concat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Channel concatenation (DenseNet's connective tissue)."""
    return np.concatenate([a, b], axis=-1)


def max_pool(x: np.ndarray, *, size: int, stride: int) -> np.ndarray:
    """Max pooling over size x size windows."""
    cols = _im2col(x, size, size, stride)
    n, oh, ow, _ = cols.shape
    return cols.reshape(n, oh, ow, size * size, x.shape[3]).max(axis=3)


def avg_pool(x: np.ndarray, *, size: int, stride: int) -> np.ndarray:
    """Average pooling over size x size windows."""
    cols = _im2col(x, size, size, stride)
    n, oh, ow, _ = cols.shape
    return cols.reshape(n, oh, ow, size * size, x.shape[3]).mean(axis=3).astype(np.float32)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Mean over the spatial dimensions, (N,H,W,C) -> (N,C)."""
    return x.mean(axis=(1, 2)).astype(np.float32)


def softmax(x: np.ndarray) -> np.ndarray:
    """Numerically-stable softmax over the last axis."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return (e / e.sum(axis=-1, keepdims=True)).astype(np.float32)


def positional_encoding(length: int, dim: int, offset: int = 0) -> np.ndarray:
    """Sinusoidal positional encodings for ``length`` positions.

    Being a pure function of the absolute position (no learned table),
    the same values fall out whether a sequence is embedded whole or one
    token at a time with a running ``offset`` -- which is what lets the
    incremental decoder reproduce full-context execution exactly.
    """
    positions = np.arange(offset, offset + length, dtype=np.float32)[:, None]
    dims = np.arange(dim, dtype=np.float32)[None, :]
    angles = positions / np.power(10000.0, (2 * (dims // 2)) / dim)
    enc = np.where(dims % 2 == 0, np.sin(angles), np.cos(angles))
    return enc.astype(np.float32)


def embedding(x: np.ndarray, weight: np.ndarray, *, offset: int = 0) -> np.ndarray:
    """Token embedding + sinusoidal positions; weight layout (VOCAB, DIM).

    ``x`` is an (N, T) float tensor carrying token ids (the wire format
    is float32 everywhere); ids are clipped into the vocabulary.
    """
    vocab, dim = weight.shape
    ids = np.clip(x.astype(np.int64), 0, vocab - 1)
    out = weight[ids] + positional_encoding(x.shape[1], dim, offset=offset)
    return out.astype(np.float32)


@lru_cache(maxsize=8)
def _centring(dim: int) -> Tuple[np.ndarray, np.float32]:
    """``(I - 1/D) / sqrt(D)`` as float32, and ``sqrt(D)``.

    A row times the matrix is its deviation from its own mean, over
    ``sqrt(D)``: the dot product of that with itself is the variance.
    """
    root = np.sqrt(dim)
    centring = ((np.eye(dim) - 1.0 / dim) / root).astype(np.float32)
    centring.setflags(write=False)
    return centring, np.float32(root)


def layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Layer normalisation over the last axis with learned scale/shift.

    Two matrix products instead of a mean and a variance: the centring
    product gives ``(x - mean) / sqrt(D)``, and each row's dot product
    with itself its variance; ``sqrt(D)`` goes back in with the scale.
    """
    centring, root = _centring(x.shape[-1])
    dev = x @ centring
    var = (dev[..., None, :] @ dev[..., :, None])[..., 0]
    return (dev / np.sqrt(var + 1e-5) * (scale * root) + shift).astype(np.float32)


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU activation (tanh approximation)."""
    inner = np.float32(np.sqrt(2.0 / np.pi)) * (x + 0.044715 * x ** 3)
    return (0.5 * x * (1.0 + np.tanh(inner))).astype(np.float32)


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Position-wise affine map over the last axis; weight layout (IN, OUT).

    Unlike :func:`dense` this keeps the leading dimensions -- it is the
    per-token projection transformer blocks are made of.
    """
    return (x @ weight + bias).astype(np.float32)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(N, T, D) -> (N, heads, T, D/heads)."""
    n, t, d = x.shape
    return x.reshape(n, t, heads, d // heads).transpose(0, 2, 1, 3)


def qkv_weight(wq: np.ndarray, wk: np.ndarray, wv: np.ndarray) -> np.ndarray:
    """``[wq | wk | wv]``: the three projections as one (D, 3D) product."""
    return np.concatenate((wq, wk, wv), axis=1)


def split_qkv(qkv: np.ndarray, heads: int) -> List[np.ndarray]:
    """(N, T, 3D) -> q, k and v, each an (N, heads, T, D/heads) view."""
    d = qkv.shape[-1] // 3
    return [_split_heads(qkv[..., i * d : (i + 1) * d], heads) for i in range(3)]


def attention(
    x: np.ndarray,
    wq: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    wo: np.ndarray,
    *,
    heads: int,
) -> np.ndarray:
    """Causal multi-head self-attention; each weight is (D, D).

    The three projections are one product with ``[wq | wk | wv]``.
    """
    n, t, d = x.shape
    dh = d // heads
    q, k, v = split_qkv(x @ qkv_weight(wq, wk, wv), heads)
    scores = (q @ k.transpose(0, 1, 3, 2)) / np.sqrt(np.float32(dh))
    mask = np.triu(np.full((t, t), -np.inf, dtype=np.float32), k=1)
    probs = softmax(scores + mask)
    out = (probs @ v).transpose(0, 2, 1, 3).reshape(n, t, d)
    return (out @ wo).astype(np.float32)


def attention_step(
    x: np.ndarray,
    wq: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    wo: np.ndarray,
    k_cache: Optional[np.ndarray],
    v_cache: Optional[np.ndarray],
    *,
    heads: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One incremental attention step over an (N, 1, D) token.

    Appends the new key/value rows to the caches (layout
    ``(N, heads, T, D/heads)``) and attends the fresh query over every
    cached position -- the causal mask is implicit because the caches
    only ever hold the past.  Returns ``(output, k_cache, v_cache)``;
    the caches are what the enclave keeps in its heap between decode
    steps.  The three projections are one product, as in :func:`attention`.
    """
    n, t, d = x.shape
    dh = d // heads
    q, k_new, v_new = split_qkv(x @ qkv_weight(wq, wk, wv), heads)
    k = k_new if k_cache is None else np.concatenate([k_cache, k_new], axis=2)
    v = v_new if v_cache is None else np.concatenate([v_cache, v_new], axis=2)
    scores = (q @ k.transpose(0, 1, 3, 2)) / np.sqrt(np.float32(dh))
    probs = softmax(scores)
    out = (probs @ v).transpose(0, 2, 1, 3).reshape(n, t, d)
    return (out @ wo).astype(np.float32), k, v


def take_last(x: np.ndarray) -> np.ndarray:
    """Slice the last time position, (N, T, D) -> (N, D)."""
    return np.ascontiguousarray(x[:, -1, :])


# ---------------------------------------------------------------------------
# shape rules: (input_shapes, attrs, weight_shapes) -> [output, *workspace]
# ---------------------------------------------------------------------------


def _window_shapes(shape, kh: int, kw: int, stride: int, pad: int, cout: int) -> List[tuple]:
    """A windowed op's output, then what :func:`_bind_cols` keeps resident:
    the padded copy (``pad > 0``) and the column matrix (the columns of a
    1x1 window are a view, as they are in :func:`_im2col`)."""
    n, h, w, c = shape
    oh, ow = (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1
    padded = [(n, h + 2 * pad, w + 2 * pad, c)] if pad else []
    cols = [(n, oh, ow, kh * kw * c)] if kh * kw > 1 else []
    return [(n, oh, ow, cout)] + padded + cols


def _conv_shapes(ins, attrs, w):
    # conv2d's weight is (KH, KW, CIN, COUT), depthwise's (KH, KW, C)
    kh, kw, *_, cout = w["weight"]
    return _window_shapes(ins[0], kh, kw, attrs["stride"], attrs["pad"], cout)


def _pool_shapes(ins, attrs, w):
    size = attrs["size"]
    return _window_shapes(ins[0], size, size, attrs["stride"], 0, ins[0][3])


def _dense_shapes(ins, attrs, w):
    return [(ins[0][0], w["weight"][1])]


def _linear_shapes(ins, attrs, w):
    return [tuple(ins[0][:-1]) + (w["weight"][1],)]


def _global_pool_shapes(ins, attrs, w):
    return [(ins[0][0], ins[0][3])]


def _embedding_shapes(ins, attrs, w):
    # workspace: the token ids as int64, two float32 slots each; their one-hot rows
    vocab, dim = w["weight"]
    ids = tuple(ins[0])
    return [ids + (dim,), ids[:-1] + (2 * ids[-1],), ids + (vocab,)]


def _like_input(*workspace: Callable):
    """Rule of a shape-preserving op; each ``workspace`` maps that shape to one buffer's."""

    def rule(ins, attrs, w):
        shape = tuple(ins[0])
        return [shape] + [f(shape) for f in workspace]

    return rule


def _rows(shape):
    """One value per row of the last axis (``tuple`` is its same-shape sibling)."""
    return shape[:-1] + (1,)


def _attention_shapes(ins, attrs, w):
    first, heads = tuple(ins[0]), attrs["heads"]
    if len(first) != 3:
        raise ModelError("attention expects an (N, T, D) input")
    if first[-1] % heads:
        raise ModelError(
            f"attention dim {first[-1]} is not divisible by {heads} heads"
        )
    n, t, d = first
    # workspace: the q, k, v projections side by side; scores and their
    # row reduction; per-head context; heads merged back to (N, T, D)
    return [
        first, (n, t, 3 * d), (n, heads, t, t), (n, heads, t, 1), (n, heads, t, d // heads), first,
    ]


def _take_last_shapes(ins, attrs, w):
    if len(ins[0]) != 3:
        raise ModelError("take_last expects an (N, T, D) input")
    return [(ins[0][0], ins[0][2])]


def _add_shapes(ins, attrs, w):
    if tuple(ins[0]) != tuple(ins[1]):
        raise ModelError("add requires matching shapes")
    return [tuple(ins[0])]


def _concat_shapes(ins, attrs, w):
    a, b = ins
    if a[:-1] != b[:-1]:
        raise ModelError("concat requires matching leading dims")
    return [tuple(a[:-1]) + (a[-1] + b[-1],)]


# ---------------------------------------------------------------------------
# binders: (inputs, out, weights, attrs, workspace) -> zero-argument step
#
# A step repeats its reference function's numpy expressions in the same
# order on the same shapes and strides -- which is what makes its output
# bit-identical -- but writes every result with ``out=`` into buffers
# that exist before the first request.  Which buffers a step touches is
# fixed at bind time; nothing it does depends on the values in them --
# not even the embedding, whose row lookup is a one-hot product
# (:func:`bind_one_hot`).
# ---------------------------------------------------------------------------


def _bind_cols(x: np.ndarray, kh: int, kw: int, stride: int, pad: int, workspace):
    """A resident :func:`_im2col`: returns ``(cols, gather)``.

    ``gather()`` refreshes ``cols`` from ``x``.  The padded copy is
    re-zeroed on every call because an arena runtime lends the same
    bytes to other tensors between two executions.
    """
    src = workspace[0] if pad else x
    n, h, w, c = src.shape
    oh, ow, s = (h - kh) // stride + 1, (w - kw) // stride + 1, src.strides
    windows = np.ndarray(
        (n, oh, ow, kh, kw, c), src.dtype, src,
        strides=(s[0], s[1] * stride, s[2] * stride, s[1], s[2], s[3]),
    )
    interior = src[:, pad:-pad, pad:-pad, :] if pad else None
    cols = workspace[-1] if kh * kw > 1 else windows.reshape(n, oh, ow, c)
    cols6 = cols.reshape(windows.shape) if kh * kw > 1 else None

    def gather() -> None:
        if interior is not None:
            src.fill(0.0)
            np.copyto(interior, x)
        if cols6 is not None:
            np.copyto(cols6, windows)

    return cols, gather


def _bind_conv2d(inputs, out, weights, attrs, workspace):
    (x,), (weight, bias) = inputs, weights
    kh, kw, cin, cout = weight.shape
    w2d = weight.reshape(kh * kw * cin, cout)
    cols, gather = _bind_cols(x, kh, kw, attrs["stride"], attrs["pad"], workspace)

    def step() -> None:
        gather()
        np.matmul(cols, w2d, out=out)
        np.add(out, bias, out=out)

    return step


def _bind_depthwise(inputs, out, weights, attrs, workspace):
    (x,), (weight, bias) = inputs, weights
    kh, kw, c = weight.shape
    w2d = weight.reshape(kh * kw, c)
    cols, gather = _bind_cols(x, kh, kw, attrs["stride"], attrs["pad"], workspace)
    cols5 = cols.reshape(cols.shape[:3] + (kh * kw, c))

    def step() -> None:
        gather()
        np.einsum("nhwkc,kc->nhwc", cols5, w2d, out=out)
        np.add(out, bias, out=out)

    return step


def _bind_pool(reduce: Callable, mean: bool):
    def bind(inputs, out, weights, attrs, workspace):
        (x,), size = inputs, attrs["size"]
        cols, gather = _bind_cols(x, size, size, attrs["stride"], 0, workspace)
        cols5 = cols.reshape(cols.shape[:3] + (size * size, x.shape[3]))

        def step() -> None:
            gather()
            reduce(cols5, axis=3, out=out)
            if mean:
                np.true_divide(out, size * size, out=out)

        return step

    return bind


def _bind_affine(flatten: bool):
    def bind(inputs, out, weights, attrs, workspace):
        (x,), (weight, bias) = inputs, weights
        if flatten:
            x = x.reshape(x.shape[0], -1)

        def step() -> None:
            np.matmul(x, weight, out=out)
            np.add(out, bias, out=out)

        return step

    return bind


def _bind_batch_norm(inputs, out, weights, attrs, workspace):
    (x,), (scale, shift) = inputs, weights

    def step() -> None:
        np.multiply(x, scale, out=out)
        np.add(out, shift, out=out)

    return step


def _bind_relu(inputs, out, weights, attrs, workspace):
    return partial(np.maximum, inputs[0], 0.0, out=out)


def _bind_relu6(inputs, out, weights, attrs, workspace):
    return partial(inputs[0].clip, 0.0, 6.0, out=out)


def _bind_add(inputs, out, weights, attrs, workspace):
    return partial(np.add, inputs[0], inputs[1], out=out)


def _bind_concat(inputs, out, weights, attrs, workspace):
    return partial(np.concatenate, tuple(inputs), axis=-1, out=out)


def _bind_softmax(inputs, out, weights, attrs, workspace):
    return partial(softmax_into, inputs[0], out, workspace[0])


def _bind_take_last(inputs, out, weights, attrs, workspace):
    return partial(np.copyto, out, inputs[0][:, -1, :])


def _bind_global_avg_pool(inputs, out, weights, attrs, workspace):
    (x,) = inputs
    count = x.shape[1] * x.shape[2]

    def step() -> None:
        np.add.reduce(x, axis=(1, 2), out=out)
        np.true_divide(out, count, out=out)

    return step


def softmax_into(x: np.ndarray, out: np.ndarray, red: np.ndarray) -> None:
    """:func:`softmax` over resident buffers; ``red`` holds one value per row."""
    np.maximum.reduce(x, axis=-1, keepdims=True, out=red)
    np.subtract(x, red, out=out)
    np.exp(out, out=out)
    np.add.reduce(out, axis=-1, keepdims=True, out=red)
    np.true_divide(out, red, out=out)


def _bind_layer_norm(inputs, out, weights, attrs, workspace):
    (x,), (scale, shift), (red,) = inputs, weights, workspace
    centring, root = _centring(x.shape[-1])
    gain = scale * root
    # each row of ``out`` against itself: one dot product per row
    rows, columns, var = out[..., None, :], out[..., :, None], red[..., None]

    def step() -> None:
        # the deviation is the numerator too, so it lands in ``out``
        np.matmul(x, centring, out=out)
        np.matmul(rows, columns, out=var)
        np.add(red, 1e-5, out=red)
        np.sqrt(red, out=red)
        np.true_divide(out, red, out=out)
        np.multiply(out, gain, out=out)
        np.add(out, shift, out=out)

    return step


def _bind_gelu(inputs, out, weights, attrs, workspace):
    (x,), (inner,) = inputs, workspace
    rate = np.float32(np.sqrt(2.0 / np.pi))

    def step() -> None:
        np.power(x, 3, out=inner)
        np.multiply(inner, 0.044715, out=inner)
        np.add(x, inner, out=inner)
        np.multiply(inner, rate, out=inner)
        np.tanh(inner, out=inner)
        np.add(inner, 1.0, out=inner)
        np.multiply(x, 0.5, out=out)
        np.multiply(out, inner, out=out)

    return step


def bind_one_hot(x: np.ndarray, weight: np.ndarray, out: np.ndarray, workspace):
    """The embedding row lookup, ``out = weight[clip(int64(x))]``, as a product.

    Every id becomes a one-hot row and the rows times ``weight`` are the
    selected rows, bit for bit: each sum has one term that is not zero
    (a finite table is assumed; a zero times an infinity is a NaN).
    Unlike a gather, it reads all of ``weight`` whatever the ids, so no
    memory access follows the tokens.  The workspace holds the ids as
    int64, two float32 slots each, then the one-hot rows.
    """
    ids, one_hot = workspace[0].view(np.int64), workspace[1]
    vocab = np.arange(weight.shape[0])
    column, last = ids[..., None], weight.shape[0] - 1

    def lookup() -> None:
        np.copyto(ids, x, casting="unsafe")
        # clipped into the vocabulary: two ufuncs cost a fifth of np.clip
        np.maximum(ids, 0, out=ids)
        np.minimum(ids, last, out=ids)
        np.equal(column, vocab, out=one_hot)
        np.matmul(one_hot, weight, out=out)

    return lookup


def _bind_embedding(inputs, out, weights, attrs, workspace):
    (x,), (weight,) = inputs, weights
    lookup = bind_one_hot(x, weight, out, workspace)
    encoding = positional_encoding(x.shape[1], weight.shape[1])

    def step() -> None:
        lookup()
        np.add(out, encoding, out=out)

    return step


def _bind_attention(inputs, out, weights, attrs, workspace):
    (x,), (wq, wk, wv, wo), heads = inputs, weights, attrs["heads"]
    qkv, scores, red, context, merged = workspace
    wqkv = qkv_weight(wq, wk, wv)
    q, k, v = split_qkv(qkv, heads)
    merged_heads = _split_heads(merged, heads)
    k_t = k.transpose(0, 1, 3, 2)
    scale = np.sqrt(np.float32(x.shape[2] // heads))
    mask = np.triu(np.full((x.shape[1],) * 2, -np.inf, dtype=np.float32), k=1)

    def step() -> None:
        np.matmul(x, wqkv, out=qkv)
        np.matmul(q, k_t, out=scores)
        np.true_divide(scores, scale, out=scores)
        np.add(scores, mask, out=scores)
        softmax_into(scores, scores, red)
        np.matmul(scores, v, out=context)
        np.copyto(merged_heads, context)
        np.matmul(merged, wo, out=out)

    return step


# ---------------------------------------------------------------------------
# the op table
# ---------------------------------------------------------------------------


class Op(NamedTuple):
    """Everything the graph code knows about one operator.

    ``run_reference`` calls ``ref``; the runtimes and the incremental
    decoder call ``bind`` once and, per request, the step it returned.
    """

    #: weight names, in the order ``ref`` and ``bind`` receive them
    weights: Tuple[str, ...]
    #: ``(input_shapes, attrs, weight_shapes) -> [output, *workspace]``
    shapes: Callable
    #: the pure reference function: ``ref(*inputs, *weights, **attrs)``
    ref: Callable
    #: ``(inputs, out, weights, attrs, workspace) -> zero-argument step``
    bind: Callable
    #: position-wise or causal -- may run one time position at a time
    streamable: bool = False


_WB, _SS, _QKVO = ("weight", "bias"), ("scale", "shift"), ("wq", "wk", "wv", "wo")

OPS: Dict[str, Op] = {
    "conv2d": Op(_WB, _conv_shapes, conv2d, _bind_conv2d),
    "depthwise_conv2d": Op(_WB, _conv_shapes, depthwise_conv2d, _bind_depthwise),
    "dense": Op(_WB, _dense_shapes, dense, _bind_affine(flatten=True)),
    "batch_norm": Op(_SS, _like_input(), batch_norm, _bind_batch_norm, True),
    "relu": Op((), _like_input(), relu, _bind_relu, True),
    "relu6": Op((), _like_input(), relu6, _bind_relu6, True),
    "add": Op((), _add_shapes, add, _bind_add, True),
    "concat": Op((), _concat_shapes, concat, _bind_concat),
    "max_pool": Op((), _pool_shapes, max_pool, _bind_pool(np.maximum.reduce, mean=False)),
    "avg_pool": Op((), _pool_shapes, avg_pool, _bind_pool(np.add.reduce, mean=True)),
    "global_avg_pool": Op((), _global_pool_shapes, global_avg_pool, _bind_global_avg_pool),
    "softmax": Op((), _like_input(_rows), softmax, _bind_softmax, True),
    "embedding": Op(("weight",), _embedding_shapes, embedding, _bind_embedding, True),
    "layer_norm": Op(_SS, _like_input(_rows), layer_norm, _bind_layer_norm, True),
    "gelu": Op((), _like_input(tuple), gelu, _bind_gelu, True),
    "linear": Op(_WB, _linear_shapes, linear, _bind_affine(flatten=False), True),
    "attention": Op(_QKVO, _attention_shapes, attention, _bind_attention, True),
    "take_last": Op((), _take_last_shapes, take_last, _bind_take_last, True),
}


def op_entry(op: str) -> Op:
    """The table row for ``op``; an unknown name is a :class:`ModelError`."""
    try:
        return OPS[op]
    except KeyError:
        raise ModelError(f"unknown op {op!r}") from None


def infer_shape(
    op: str,
    input_shapes: Sequence[Tuple[int, ...]],
    attrs: Mapping,
    weight_shapes: Mapping[str, Tuple[int, ...]],
) -> Tuple[int, ...]:
    """Output shape of ``op`` given input shapes, attributes, weights."""
    return op_entry(op).shapes(input_shapes, attrs, weight_shapes)[0]


def run_op(
    op: str,
    inputs: List[np.ndarray],
    attrs: Mapping,
    weights: Mapping[str, np.ndarray],
) -> np.ndarray:
    """Execute ``op``'s reference function on concrete tensors."""
    entry = op_entry(op)
    return entry.ref(*inputs, *(weights[name] for name in entry.weights), **attrs)
