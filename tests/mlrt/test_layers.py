"""Operator correctness against naive references and known values."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.mlrt import layers


def naive_conv2d(x, w, b, stride, pad):
    n, h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, oh, ow, cout), dtype=np.float32)
    for bi in range(n):
        for i in range(oh):
            for j in range(ow):
                patch = x[bi, i * stride : i * stride + kh, j * stride : j * stride + kw]
                for co in range(cout):
                    out[bi, i, j, co] = (patch * w[:, :, :, co]).sum() + b[co]
    return out


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
def test_conv2d_matches_naive(stride, pad):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 6, 6, 3)).astype(np.float32)
    w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    fast = layers.conv2d(x, w, b, stride=stride, pad=pad)
    assert np.allclose(fast, naive_conv2d(x, w, b, stride, pad), atol=1e-4)


def test_depthwise_matches_per_channel_conv():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 5, 5, 3)).astype(np.float32)
    w = rng.standard_normal((3, 3, 3)).astype(np.float32)
    b = np.zeros(3, dtype=np.float32)
    out = layers.depthwise_conv2d(x, w, b, stride=1, pad=1)
    for channel in range(3):
        single = layers.conv2d(
            x[..., channel : channel + 1],
            w[..., channel : channel + 1, None],
            np.zeros(1, dtype=np.float32),
            stride=1,
            pad=1,
        )
        assert np.allclose(out[..., channel], single[..., 0], atol=1e-4)


def test_dense_known_values():
    x = np.array([[1.0, 2.0]], dtype=np.float32)
    w = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    b = np.array([10.0, 20.0], dtype=np.float32)
    assert np.allclose(layers.dense(x, w, b), [[11.0, 22.0]])


def test_batch_norm_scale_shift():
    x = np.ones((1, 2, 2, 2), dtype=np.float32)
    out = layers.batch_norm(x, np.array([2.0, 3.0]), np.array([1.0, -1.0]))
    assert np.allclose(out[..., 0], 3.0)
    assert np.allclose(out[..., 1], 2.0)


def test_relu_and_relu6():
    x = np.array([-5.0, 0.0, 3.0, 10.0], dtype=np.float32)
    assert np.allclose(layers.relu(x), [0, 0, 3, 10])
    assert np.allclose(layers.relu6(x), [0, 0, 3, 6])


def test_add_and_concat():
    a = np.ones((1, 2, 2, 2), dtype=np.float32)
    b = np.full((1, 2, 2, 3), 2.0, dtype=np.float32)
    assert layers.concat(a, b).shape == (1, 2, 2, 5)
    assert np.allclose(layers.add(a, a), 2.0)


def test_max_and_avg_pool():
    x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
    assert np.allclose(
        layers.max_pool(x, size=2, stride=2)[0, :, :, 0], [[5, 7], [13, 15]]
    )
    assert np.allclose(
        layers.avg_pool(x, size=2, stride=2)[0, :, :, 0], [[2.5, 4.5], [10.5, 12.5]]
    )


def test_global_avg_pool():
    x = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
    assert np.allclose(layers.global_avg_pool(x), [[3.0, 4.0]])


def test_softmax_properties():
    x = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
    out = layers.softmax(x)
    assert out.sum() == pytest.approx(1.0, abs=1e-5)
    assert (np.diff(out[0]) > 0).all()


def test_softmax_numerically_stable():
    out = layers.softmax(np.array([[1000.0, 1000.0]], dtype=np.float32))
    assert np.isfinite(out).all()


def test_shape_inference_matches_execution():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 8, 8, 3)).astype(np.float32)
    w = rng.standard_normal((3, 3, 3, 5)).astype(np.float32)
    b = np.zeros(5, dtype=np.float32)
    out = layers.conv2d(x, w, b, stride=2, pad=1)
    inferred = layers.infer_shape(
        "conv2d", [x.shape], {"stride": 2, "pad": 1}, {"weight": w.shape}
    )
    assert tuple(out.shape) == inferred


def test_infer_shape_validates():
    with pytest.raises(ModelError):
        layers.infer_shape("add", [(1, 2), (1, 3)], {}, {})
    with pytest.raises(ModelError):
        layers.infer_shape("nonsense", [(1,)], {}, {})


def test_run_op_unknown_rejected():
    with pytest.raises(ModelError):
        layers.run_op("nonsense", [np.zeros(1)], {}, {})


def test_every_reference_op_returns_float32():
    """No op may drift into float64 (NumPy >= 2 promotes a float64 *scalar*
    times a float32 array to float64) and round back at the end."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 6, 6, 4)).astype(np.float32)
    seq = rng.standard_normal((2, 5, 8)).astype(np.float32)
    vec = rng.standard_normal(4).astype(np.float32)
    square = rng.standard_normal((8, 8)).astype(np.float32)
    results = {
        "conv2d": layers.conv2d(
            x, rng.standard_normal((3, 3, 4, 2)).astype(np.float32), vec[:2], stride=1, pad=1
        ),
        "depthwise_conv2d": layers.depthwise_conv2d(
            x, rng.standard_normal((3, 3, 4)).astype(np.float32), vec, stride=2, pad=1
        ),
        "dense": layers.dense(x, rng.standard_normal((144, 3)).astype(np.float32), vec[:3]),
        "batch_norm": layers.batch_norm(x, vec, vec),
        "relu": layers.relu(x),
        "relu6": layers.relu6(x),
        "add": layers.add(x, x),
        "concat": layers.concat(x, x),
        "max_pool": layers.max_pool(x, size=2, stride=2),
        "avg_pool": layers.avg_pool(x, size=2, stride=2),
        "global_avg_pool": layers.global_avg_pool(x),
        "softmax": layers.softmax(seq),
        "embedding": layers.embedding(np.array([[1.0, 3.0]], dtype=np.float32), square),
        "layer_norm": layers.layer_norm(seq, square[0], square[1]),
        "gelu": layers.gelu(seq),
        "linear": layers.linear(seq, square, square[0]),
        "attention": layers.attention(seq, square, square, square, square, heads=2),
        "take_last": layers.take_last(seq),
    }
    assert set(results) == set(layers.OPS)
    assert {name for name, y in results.items() if y.dtype != np.float32} == set()


def test_gelu_is_the_all_float32_formula_exactly():
    x = (np.random.default_rng(4).standard_normal((3, 7, 16)) * 3).astype(np.float32)
    f = np.float32
    # x ** 3 is np.power, not two multiplications: build it the same way
    inner = f(np.sqrt(2.0 / np.pi)) * (x + f(0.044715) * np.power(x, f(3)))
    assert inner.dtype == np.float32
    want = f(0.5) * x * (f(1.0) + np.tanh(inner))
    assert want.dtype == np.float32
    got = layers.gelu(x)
    assert got.dtype == np.float32 and np.array_equal(got, want)
    # the float64 computation it used to be differs in the last bit somewhere
    wide = x.astype(np.float64)
    old = 0.5 * wide * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (wide + 0.044715 * wide ** 3)))
    assert not np.array_equal(got, old.astype(np.float32))
