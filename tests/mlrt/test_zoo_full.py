"""Full-depth architecture builders: structure counts and execution."""

import numpy as np
import pytest

from repro.mlrt.framework import get_framework
from repro.mlrt.zoo_full import (
    build_densenet121_full,
    build_mobilenet_full,
    build_resnet101_full,
)


@pytest.fixture(scope="module")
def mbnet():
    return build_mobilenet_full()


@pytest.fixture(scope="module")
def rsnet():
    return build_resnet101_full()


@pytest.fixture(scope="module")
def dsnet():
    return build_densenet121_full()


def test_mobilenet_has_13_separable_blocks(mbnet):
    depthwise = [n for n in mbnet.nodes if n.op == "depthwise_conv2d"]
    assert len(depthwise) == 13
    pointwise = [
        n for n in mbnet.nodes
        if n.op == "conv2d" and mbnet.weights[f"{n.name}.weight"].shape[0] == 1
    ]
    assert len(pointwise) == 13  # one 1x1 conv per block


def test_resnet101_has_33_bottlenecks(rsnet):
    adds = [n for n in rsnet.nodes if n.op == "add"]
    assert len(adds) == 3 + 4 + 23 + 3
    # Each bottleneck contributes exactly three convolutions (plus
    # occasional projection shortcuts).
    convs = [n for n in rsnet.nodes if n.op == "conv2d"]
    assert len(convs) >= 3 * 33


def test_densenet121_has_58_dense_layers(dsnet):
    concats = [n for n in dsnet.nodes if n.op == "concat"]
    assert len(concats) == 6 + 12 + 24 + 16
    pools = [n for n in dsnet.nodes if n.op == "avg_pool"]
    assert len(pools) == 3  # three transitions


def test_full_models_execute_and_normalise(mbnet, rsnet, dsnet):
    for model in (mbnet, rsnet, dsnet):
        x = np.random.default_rng(0).standard_normal(model.input_spec.shape)
        out = model.run_reference(x.astype(np.float32))
        assert out.shape == (1, 10)
        assert out.sum() == pytest.approx(1.0, abs=1e-4)


def test_full_models_run_in_both_runtimes(mbnet):
    x = np.random.default_rng(1).standard_normal(mbnet.input_spec.shape)
    x = x.astype(np.float32)
    tvm_out = get_framework("tvm").create_runtime(mbnet).execute(x)
    tflm_out = get_framework("tflm").create_runtime(mbnet).execute(x)
    assert np.allclose(tvm_out, tflm_out, atol=1e-5)


def test_serialization_roundtrip_full(dsnet):
    from repro.mlrt.model import Model

    restored = Model.deserialize(dsnet.serialize())
    assert len(restored.nodes) == len(dsnet.nodes)
