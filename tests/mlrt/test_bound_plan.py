"""The bound plan: one op table, bound once, bit-identical to the reference.

``Model.run_reference`` keeps walking the graph through the pure
reference functions; everything here compares a *bound step* -- what
the TVM executor, the TFLM interpreter and ``DecoderSession`` actually
run -- against it with ``np.array_equal``, never ``allclose``.
"""

import functools
import inspect
import pathlib
import re
import threading

import numpy as np
import pytest

from repro.errors import ModelError
from repro.mlrt import layers
from repro.mlrt.decoder import DecoderSession
from repro.mlrt.framework import get_framework
from repro.mlrt.model import GraphBuilder, GraphNode, Model
from repro.mlrt.tensor import TensorSpec
from repro.mlrt.zoo import build_densenet, build_mobilenet, build_resnet, build_tinylm
from repro.mlrt.zoo_full import (
    build_densenet121_full,
    build_mobilenet_full,
    build_resnet101_full,
)

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
FRAMEWORKS = ("tvm", "tflm")
CNNS = [build_mobilenet, build_resnet, build_densenet]
ALL_MODELS = CNNS + [
    build_mobilenet_full, build_resnet101_full, build_densenet121_full, build_tinylm,
]


def f32(rng, *shape):
    return rng.standard_normal(shape).astype(np.float32)


def perturbed(model: Model, seed: int) -> Model:
    """``model`` with non-trivial BN/LN scale and shift and conv/dense bias
    (the builders leave them at one and zero, which would hide a step
    that skips them)."""
    rng = np.random.default_rng(seed)
    for key, array in model.weights.items():
        if key.rsplit(".", 1)[1] in ("scale", "shift", "bias"):
            model.weights[key] = (array + 0.3 * f32(rng, *array.shape)).astype(np.float32)
    return model


def model_input(model: Model, rng) -> np.ndarray:
    if model.nodes[0].op == "embedding":
        return rng.integers(-2, 40, model.input_spec.shape).astype(np.float32)
    return f32(rng, *model.input_spec.shape)


# -- every table entry, on its own ----------------------------------------------------


def _window_case(rng, depthwise):
    k, stride, pad = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(0, 2))
    n, h, w, c = (int(v) for v in rng.integers([1, 5, 5, 1], [3, 10, 10, 5]))
    weight = f32(rng, k, k, c) if depthwise else f32(rng, k, k, c, int(rng.integers(1, 6)))
    return [(n, h, w, c)], [weight, f32(rng, weight.shape[-1])], {"stride": stride, "pad": pad}


def _pool_case(rng):
    size, stride = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    return [tuple(int(v) for v in rng.integers([1, 5, 5, 1], [3, 10, 10, 5]))], [], {
        "size": size, "stride": stride,
    }


def _nhwc(rng):
    return tuple(int(v) for v in rng.integers([1, 1, 1, 1], [3, 8, 8, 6]))


def _ntd(rng, heads=1):
    n, t, d = (int(v) for v in rng.integers([1, 1, 1], [3, 9, 7]))
    return (n, t, d * heads)


def _scaled_case(rng, shape):
    return [shape], [f32(rng, shape[-1]), f32(rng, shape[-1])], {}


def _affine_case(rng, shape, fan_in):
    cout = int(rng.integers(1, 7))
    return [shape], [f32(rng, fan_in, cout), f32(rng, cout)], {}


def _dense_case(rng):
    shape = _nhwc(rng)
    return _affine_case(rng, shape, shape[1] * shape[2] * shape[3])


def _linear_case(rng):
    shape = _ntd(rng)
    return _affine_case(rng, shape, shape[2])


def _attention_case(rng):
    heads = int(rng.integers(1, 4))
    shape = _ntd(rng, heads)
    return [shape], [f32(rng, shape[2], shape[2]) for _ in range(4)], {"heads": heads}


def _concat_case(rng):
    a = _nhwc(rng)
    return [a, a[:3] + (int(rng.integers(1, 5)),)], [], {}


#: op -> rng -> (input shapes, weights, attrs); one entry per table row
CASES = {
    "conv2d": lambda rng: _window_case(rng, depthwise=False),
    "depthwise_conv2d": lambda rng: _window_case(rng, depthwise=True),
    "dense": _dense_case,
    "batch_norm": lambda rng: _scaled_case(rng, _nhwc(rng)),
    "relu": lambda rng: ([_nhwc(rng)], [], {}),
    "relu6": lambda rng: ([_nhwc(rng)], [], {}),
    "add": lambda rng: ([_nhwc(rng)] * 2, [], {}),
    "concat": _concat_case,
    "max_pool": _pool_case,
    "avg_pool": _pool_case,
    "global_avg_pool": lambda rng: ([_nhwc(rng)], [], {}),
    "softmax": lambda rng: ([_ntd(rng)[:2]], [], {}),
    "embedding": lambda rng: ([_ntd(rng)[:2]], [f32(rng, 11, int(rng.integers(1, 9)))], {}),
    "layer_norm": lambda rng: _scaled_case(rng, _ntd(rng)),
    "gelu": lambda rng: ([_ntd(rng)], [], {}),
    "linear": _linear_case,
    "attention": _attention_case,
    "take_last": lambda rng: ([_ntd(rng)], [], {}),
}


def test_the_cases_cover_the_table():
    assert set(CASES) == set(layers.OPS)


@pytest.mark.parametrize("op", sorted(layers.OPS))
def test_bound_step_is_bit_identical_to_the_reference(op):
    entry = layers.OPS[op]
    for seed in range(25):
        rng = np.random.default_rng([seed, sorted(layers.OPS).index(op)])
        in_shapes, weights, attrs = CASES[op](rng)
        weight_shapes = {name: w.shape for name, w in zip(entry.weights, weights)}
        out_shape, *workspace_shapes = entry.shapes(in_shapes, attrs, weight_shapes)
        # garbage, not zeros: a step may not rely on what the allocator left
        inputs = [np.full(shape, np.nan, np.float32) for shape in in_shapes]
        out = np.full(out_shape, np.nan, np.float32)
        workspace = [np.full(shape, np.nan, np.float32) for shape in workspace_shapes]
        step = entry.bind(inputs, out, weights, attrs, workspace)
        for _ in range(3):  # fresh values through the same step: nothing stale
            for buffer in inputs:
                if op == "embedding":
                    buffer[...] = rng.integers(-3, 15, buffer.shape)
                else:
                    buffer[...] = 3 * f32(rng, *buffer.shape)
            step()
            want = entry.ref(*(b.copy() for b in inputs), *weights, **attrs)
            assert want.dtype == np.float32, (op, seed)
            assert want.shape == tuple(out_shape), (op, seed, attrs)
            assert np.array_equal(out, want), (op, seed, in_shapes, attrs)
            assert layers.infer_shape(op, in_shapes, attrs, weight_shapes) == want.shape


def test_the_table_is_complete():
    """Every op a ``GraphBuilder`` helper can emit is a full table row."""
    b = GraphBuilder("every-helper", TensorSpec((1, 8, 8, 3)))
    x = b.conv("input", 4)
    x = b.relu(b.relu6(b.batch_norm(b.depthwise(x))))
    x = b.concat(b.add(x, x), b.avg_pool(b.max_pool(x, 1, 1), 1, 1))
    b.softmax(b.dense(b.global_avg_pool(x), 3))
    t = GraphBuilder("every-token-helper", TensorSpec((1, 4)))
    y = t.attention(t.layer_norm(t.embedding("input", 8, 4)))
    t.take_last(t.linear(t.gelu(y), 8))
    helpers = {
        name for name in vars(GraphBuilder)
        if not name.startswith("_") and name not in ("build", "shape_of")
    }
    emitted = {node.op for node in b.nodes + t.nodes}
    assert len(emitted) == len(helpers) == len(layers.OPS)
    assert emitted == set(layers.OPS)
    for op, entry in layers.OPS.items():
        assert isinstance(entry.weights, tuple), op
        assert callable(entry.shapes) and callable(entry.ref) and callable(entry.bind), op
        assert isinstance(entry.streamable, bool), op
    for model in (b.build(), t.build()):
        x = model_input(model, np.random.default_rng(0))
        for framework in FRAMEWORKS:
            runtime = get_framework(framework).create_runtime(model)
            assert np.array_equal(runtime.execute(x), model.run_reference(x))


def test_an_unknown_op_is_refused_at_bind_time():
    """...never at run time: a model that names one cannot even be built."""
    node = GraphNode(name="n", op="fused_magic", inputs=("input",))
    with pytest.raises(ModelError, match="unknown op 'fused_magic'"):
        Model("bad", TensorSpec((1, 4)), [node], {})
    with pytest.raises(ModelError, match="unknown op"):
        layers.op_entry("fused_magic")


# -- whole models ---------------------------------------------------------------------


@pytest.mark.parametrize("build", ALL_MODELS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_execute_is_bit_identical_to_run_reference(build, framework):
    model = perturbed(build(), seed=5)
    rng = np.random.default_rng(17)
    runtime = get_framework(framework).create_runtime(model)
    inputs = [model_input(model, rng) for _ in range(50)]
    references = [model.run_reference(x) for x in inputs]
    # a-b-a-b: a buffer that kept anything of the previous request shows
    for index in [0, 1, 0, 1] + list(range(2, 50)):
        got = runtime.execute(inputs[index])
        assert got.dtype == np.float32
        assert np.array_equal(got, references[index]), (model.name, framework, index)


def oracle_step(model: Model, state: dict, token: int) -> np.ndarray:
    """``DecoderSession.step`` as it was before the plan: walk the graph,
    special-case the two stateful ops, ``run_op`` the rest."""
    values = {"input": np.array([[float(token)]], dtype=np.float32)}
    for node in model.nodes:
        inputs = [values[name] for name in node.inputs]
        weights = model.node_weights(node)
        if node.op == "embedding":
            out = layers.embedding(inputs[0], weights["weight"], offset=state["position"])
        elif node.op == "attention":
            k_cache, v_cache = state.get(node.name, (None, None))
            out, k_cache, v_cache = layers.attention_step(
                inputs[0],
                weights["wq"], weights["wk"], weights["wv"], weights["wo"],
                k_cache, v_cache, heads=node.attrs["heads"],
            )
            state[node.name] = (k_cache, v_cache)
        else:
            out = layers.run_op(node.op, inputs, node.attrs, weights)
        values[node.name] = out
    state["position"] += 1
    return values[model.output_node]


def test_decoder_step_is_bit_identical_to_the_graph_walk():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        model = perturbed(build_tinylm(ctx=8, seed=seed), seed)
        session, state = DecoderSession(model), {"position": 0}
        for position, token in enumerate(rng.integers(0, 32, 15)):  # past ctx = 8
            got = session.step(int(token))
            want = oracle_step(model, state, int(token))
            assert np.array_equal(got, want), (seed, position)
        assert session.position == 15
        del state["position"]
        assert session.kv_bytes == sum(k.nbytes + v.nbytes for k, v in state.values())


def test_two_streams_of_one_model_stepped_alternately():
    model = perturbed(build_tinylm(seed=3), 3)
    a_tokens, b_tokens = [1, 5, 9, 2, 7, 7], [30, 0, 4, 4, 11, 6]
    alone_a = _run_alone(model, a_tokens)
    alone_b = _run_alone(model, b_tokens)
    a, b = DecoderSession(model), DecoderSession(model)
    for index, (ta, tb) in enumerate(zip(a_tokens, b_tokens)):
        assert np.array_equal(a.step(ta), alone_a[index])
        assert np.array_equal(b.step(tb), alone_b[index])
    assert a.kv_bytes == b.kv_bytes > 0


def _run_alone(model, tokens):
    session = DecoderSession(model)
    return [session.step(token) for token in tokens]


def test_two_threads_share_a_model_but_no_scratch():
    """The plan is per ``Model`` and shared; nothing a step writes is.

    Each thread executes its own runtime and decodes its own stream of
    the one shared model, 200 times, while the other does the same with
    different inputs -- results must equal the ones computed alone.
    """
    cnn, lm = perturbed(build_mobilenet(), 1), perturbed(build_tinylm(), 2)
    rng = np.random.default_rng(9)
    xs = [f32(rng, *cnn.input_spec.shape) for _ in range(2)]
    prompts = [[3, 1, 4, 1, 5], [27, 18, 28, 18, 2]]
    want_y = [cnn.run_reference(x) for x in xs]
    want_logits = [_run_alone(lm, prompt) for prompt in prompts]
    failures = []

    def work(me: int) -> None:
        runtime = get_framework(FRAMEWORKS[me]).create_runtime(cnn)
        for round_ in range(200):
            if not np.array_equal(runtime.execute(xs[me]), want_y[me]):
                failures.append(("execute", me, round_))
            session = DecoderSession(lm)
            got = [session.step(token) for token in prompts[me]]
            if not all(map(np.array_equal, got, want_logits[me])):
                failures.append(("decode", me, round_))

    threads = [threading.Thread(target=work, args=(me,)) for me in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


# -- clear() and input-independence ---------------------------------------------------


def reachable_arrays(obj, seen=None):
    """Every ndarray a bound step can reach: closure cells, ``partial``
    arguments, bound-method receivers and containers, recursively."""
    seen = {} if seen is None else seen
    if id(obj) in seen:
        return seen
    if isinstance(obj, np.ndarray):
        seen[id(obj)] = obj
        return seen
    if isinstance(obj, functools.partial):
        children = [obj.func, *obj.args, *obj.keywords.values()]
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif callable(obj):
        cells = getattr(obj, "__closure__", None) or ()
        children = [cell.cell_contents for cell in cells]
        children.append(getattr(obj, "__self__", None))
    else:
        return seen
    seen[id(obj)] = None
    for child in children:
        reachable_arrays(child, seen)
    return seen


def scratch_arrays(runtime, weights):
    """What ``runtime`` can reach that is not (a view of) a weight."""
    found = reachable_arrays([runtime._steps, runtime._input, runtime._output])
    arrays = [a for a in found.values() if a is not None]
    return [a for a in arrays if not any(np.shares_memory(a, w) for w in weights)]


@pytest.mark.parametrize("build", CNNS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_clear_leaves_nothing_of_the_request_behind(build, framework):
    model = perturbed(build(), 4)
    runtime = get_framework(framework).create_runtime(model)
    weights = list(getattr(runtime, "_params", model.weights).values())
    x = f32(np.random.default_rng(1), *model.input_spec.shape)
    want = model.run_reference(x)
    assert np.array_equal(runtime.execute(x), want)
    scratch = scratch_arrays(runtime, weights)
    assert len(scratch) > len(model.nodes)  # activations *and* workspace were found
    assert sum(bool(a.any()) for a in scratch) > len(model.nodes) // 2
    runtime.clear()
    assert [a.shape for a in scratch if a.any()] == []
    with pytest.raises(ModelError):
        runtime.prepare_output()
    # ...and no step relied on a border only the constructor had zeroed
    assert np.array_equal(runtime.execute(x), want)


def test_a_dropped_stream_parks_zeroed_steps_for_the_next_one():
    model = build_tinylm(seed=6)
    first = DecoderSession(model)
    steps = first._steps
    logits = [first.step(token) for token in (4, 9, 2)]
    assert first.kv_bytes > 0
    del first
    (clock, caches, scratch, *_), = model.plan((1, 1)).idle
    assert clock == [0] and caches == [[], []]
    assert not scratch.any()
    second = DecoderSession(model)
    assert second._steps is steps and model.plan((1, 1)).idle == []
    assert second.position == 0 and second.kv_bytes == 0
    assert all(map(np.array_equal, [second.step(t) for t in (4, 9, 2)], logits))


def _addresses(arrays):
    return [
        (a.__array_interface__["data"][0], a.shape, a.dtype.str, a.strides) for a in arrays
    ]


@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_the_op_sequence_and_every_buffer_are_input_independent(framework):
    """First half of ROADMAP 4(b): what runs and where it reads and writes
    is a constant of the model -- the step list and every buffer's
    address, shape and dtype are the same before and after zeros, huge
    values and a NaN-bearing input."""
    model = perturbed(build_mobilenet(), 8)
    runtime = get_framework(framework).create_runtime(model)
    weights = list(getattr(runtime, "_params", model.weights).values())
    steps = list(runtime._steps)
    before = _addresses(scratch_arrays(runtime, weights))
    shape = model.input_spec.shape
    poisoned = f32(np.random.default_rng(2), *shape)
    poisoned[0, 3, 4, 1] = np.nan
    with np.errstate(all="ignore"):
        for x in (np.zeros(shape, np.float32), np.full(shape, 3e38, np.float32), poisoned):
            runtime.execute(x)
            assert runtime._steps == steps
            assert _addresses(scratch_arrays(runtime, weights)) == before


def test_the_one_data_dependent_access_is_the_embedding_row_gather():
    """``layers.bind_gather`` reads the rows of the embedding table the
    token ids name -- the access pattern follows the input there and
    nowhere else (docs/streaming.md says so too).  Everything else about
    a decode step is fixed: same steps, same scratch, whatever the ids."""
    model = build_tinylm(seed=2)
    session = DecoderSession(model)
    steps, scratch = list(session._steps), _addresses([session._scratch])
    for token in (0, 31, 10**6, -5):
        session.step(token)
        assert session._steps == steps and _addresses([session._scratch]) == scratch
    text = (SRC / "mlrt" / "layers.py").read_text()
    assert text.count("np.take(") == 1 and "def bind_gather" in text
    assert "bind_gather" in (SRC.parents[1] / "docs" / "streaming.md").read_text()


# -- the walk cannot come back --------------------------------------------------------

def test_run_op_is_called_only_by_run_reference():
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if "run_op(" in line and not line.lstrip().startswith("def run_op("):
                calls.append((str(path.relative_to(SRC)), number))
    assert [name for name, _ in calls] == ["mlrt/model.py"], calls
    source = (SRC / "mlrt" / "model.py").read_text()
    body = source[source.index("def run_reference"):source.index("# -- serialisation")]
    assert "run_op(" in body


def test_no_op_name_dispatch_chain_outside_the_table():
    chain = re.compile(r"\bop\s*(==|!=|in\s*\(|in\s*\{|in\s*\[)")
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if chain.search(line.split("#")[0]):
                hits.append((name, number, line.strip()))
    assert hits == []
    # one execute body for both frameworks, and nothing per node in it
    from repro.mlrt.framework import ModelRuntime
    from repro.mlrt.tflm_rt import TflmInterpreter
    from repro.mlrt.tvm_rt import TvmGraphExecutor

    assert TvmGraphExecutor.execute is TflmInterpreter.execute is ModelRuntime.execute
    for body in (inspect.getsource(ModelRuntime.execute), inspect.getsource(DecoderSession.step)):
        for forbidden in ("import ", "node", "weights", "= {", "dict(", "op."):
            assert forbidden not in body, (forbidden, body)
