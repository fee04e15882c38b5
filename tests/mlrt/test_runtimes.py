"""TVM-style and TFLM-style runtimes: equivalence and memory behaviour."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.mlrt.framework import get_framework
from repro.mlrt.tflm_rt import plan_model_arena
from repro.mlrt.zoo import build_densenet, build_mobilenet, build_resnet

BUILDERS = [build_mobilenet, build_resnet, build_densenet]


@pytest.fixture(params=BUILDERS, ids=["mbnet", "rsnet", "dsnet"])
def model(request):
    return request.param()


def make_input(model, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(model.input_spec.shape).astype(np.float32)


def test_frameworks_registered():
    assert get_framework("tvm").name == "tvm"
    assert get_framework("tflm").name == "tflm"


def test_unknown_framework_rejected():
    with pytest.raises(ModelError):
        get_framework("pytorch")


def test_runtimes_agree_with_reference(model):
    x = make_input(model)
    reference = model.run_reference(x)
    for name in ("tvm", "tflm"):
        runtime = get_framework(name).create_runtime(model)
        assert np.allclose(runtime.execute(x), reference, atol=1e-5), name


def test_runtimes_agree_with_each_other(model):
    x = make_input(model, seed=7)
    tvm = get_framework("tvm").create_runtime(model)
    tflm = get_framework("tflm").create_runtime(model)
    assert np.allclose(tvm.execute(x), tflm.execute(x), atol=1e-5)


def test_tflm_buffer_smaller_than_tvm(model):
    tvm = get_framework("tvm").create_runtime(model)
    tflm = get_framework("tflm").create_runtime(model)
    assert tflm.buffer_bytes < tvm.buffer_bytes


def test_tvm_buffer_includes_weight_copies(model):
    tvm = get_framework("tvm").create_runtime(model)
    assert tvm.buffer_bytes >= model.weight_bytes


def test_tflm_arena_excludes_weights(model):
    tflm = get_framework("tflm").create_runtime(model)
    plan = plan_model_arena(model)
    assert tflm.buffer_bytes == plan.total_bytes


def test_repeated_execution_consistent(model):
    x = make_input(model, seed=3)
    runtime = get_framework("tflm").create_runtime(model)
    first = runtime.execute(x).copy()
    runtime.execute(make_input(model, seed=4))
    assert np.allclose(runtime.execute(x), first, atol=1e-6)


def test_prepare_output_roundtrip(model):
    x = make_input(model)
    runtime = get_framework("tvm").create_runtime(model)
    result = runtime.execute(x)
    raw = runtime.prepare_output()
    assert np.allclose(np.frombuffer(raw, dtype=np.float32), result.ravel())


def test_prepare_output_requires_execute(model):
    runtime = get_framework("tvm").create_runtime(model)
    with pytest.raises(ModelError):
        runtime.prepare_output()


def test_clear_drops_output(model):
    runtime = get_framework("tflm").create_runtime(model)
    runtime.execute(make_input(model))
    runtime.clear()
    with pytest.raises(ModelError):
        runtime.prepare_output()


def test_tflm_rejects_wrong_input_shape(model):
    runtime = get_framework("tflm").create_runtime(model)
    with pytest.raises(ModelError):
        runtime.execute(np.zeros((1, 2, 2, 3), dtype=np.float32))


@pytest.mark.parametrize("framework", ["tvm", "tflm"])
@pytest.mark.parametrize(
    "shape", [(16, 16, 3), (1, 16, 16, 1), (1, 8, 8, 3), (2, 16, 16, 3)]
)
def test_wrong_input_shape_is_a_model_error(model, framework, shape):
    """Exact shape, no broadcasting: the first two would otherwise fill
    the resident input buffer silently, the last two die inside some op."""
    runtime = get_framework(framework).create_runtime(model)
    with pytest.raises(ModelError, match="does not match model"):
        runtime.execute(np.zeros(shape, dtype=np.float32))
    x = make_input(model)
    assert np.array_equal(runtime.execute(x), model.run_reference(x))


def test_artifact_load_via_framework(model):
    blob = model.serialize()
    loaded = get_framework("tvm").load_model(blob)
    x = make_input(model)
    assert np.allclose(loaded.run_reference(x), model.run_reference(x))
