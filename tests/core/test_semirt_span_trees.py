"""Golden span trees: the serving paths' observable shape, pinned.

``tests/core/data/semirt_span_trees.json`` was captured by
``scripts/make_span_goldens.py`` from commit b7c0bf4 -- the last tree in
which ``core/semirt.py`` drove the enclave through four hand-copied
ECALL cycles -- *before* the cycles were folded into one driver and the
enclave half moved to ``core/semirt_enclave.py``.  Each scenario below
drives one serving path on a live host and renders what the tracer saw
as a tree of ``[span name, status, sorted attribute keys, children]``;
``fig8``/``fig17``, ``experiments/{concurrency,batching,streaming}.py``
and ``bench/`` all key on these names, parents and attributes, so the
refactor has to reproduce them exactly.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from repro.core.batching import BatchPolicy
from repro.core.deployment import SeSeMIEnvironment
from repro.core.semirt import SchedulerConfig
from repro.core.semirt_enclave import default_semirt_config
from repro.errors import InvocationError, RequestCancelled
from repro.mlrt.zoo import build_densenet, build_mobilenet, build_tinylm

GOLDEN = pathlib.Path(__file__).parent / "data" / "semirt_span_trees.json"


def span_tree(spans, collapse=False, skip=()):
    """Render ``spans`` (tracer start order) as nested rows.

    ``collapse`` lists a run of identical consecutive sibling subtrees
    once -- for the scenario whose *number* of decode steps depends on
    thread timing while its shape does not.  ``skip`` drops spans by
    name: whether a batch pays ``stage:runtime_init`` depends on which
    idle worker happened to wake as leader (runtimes are per thread).
    """
    children = {}
    for span in spans:
        if span.name not in skip:
            children.setdefault(span.parent_id, []).append(span)

    def render(span):
        rows = [render(child) for child in children.get(span.span_id, [])]
        if collapse:
            rows = [r for i, r in enumerate(rows) if i == 0 or r != rows[i - 1]]
        return [span.name, span.status, sorted(span.attributes), rows]

    known = {span.span_id for span in spans}
    return [render(s) for s in spans if s.parent_id not in known and s.name not in skip]


class _World:
    """One host plus the plumbing every scenario needs."""

    def __init__(self, models, framework, *, tcs_count=1, scheduler=None,
                 users=("user",)):
        self.env = SeSeMIEnvironment()
        config = default_semirt_config(tcs_count=tcs_count)
        for model_id, model in models.items():
            handle = self.env.deploy(
                model, model_id, owner="owner", framework=framework, config=config
            )
            for name in users:
                handle.grant(name)
        self.tracer = self.env.tracer
        self.tracer.clear()
        self.host = self.env.launch_semirt(
            framework, config=config, scheduler=scheduler
        )

    def seal(self, model_id, x, user="user"):
        return self.env.user(user).encrypt_request(
            model_id, self.host.measurement, x
        )

    def seal_stream(self, model_id, prompt, max_new, user="user"):
        return self.env.user(user).encrypt_stream_request(
            model_id, self.host.measurement, prompt, max_new
        )

    def uid(self, user="user"):
        return self.env.user(user).principal_id

    def submit(self, name, enc, model_id, *, stream=False, user="user"):
        """Admit one sealed request under its own root span ``name``."""
        entry = self.host.open_stream if stream else self.host.submit
        with self.tracer.span(name):
            return entry(enc, self.uid(user), model_id)

    def take(self, **render):
        """The tree of everything traced since the last take."""
        _settle(lambda: all(s.ended for s in self.tracer.spans))
        tree = span_tree(list(self.tracer.spans), **render)
        self.tracer.clear()
        return tree


def _settle(condition, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert condition()


def _input(model):
    return np.zeros(model.input_spec.shape, dtype=np.float32)


def singles():
    """Cold (launch + first request), warm (model switch), hot (repeat)."""
    a, b = build_mobilenet(), build_densenet()
    world = _World({"model-a": a, "model-b": b}, "tvm")
    trees = {}
    enc = world.seal("model-a", _input(a))
    # a relaunch has the same measurement, so the sealed request still
    # fits; the take then starts at the launch, like a cold sandbox
    world.host.destroy()
    world.tracer.clear()
    world.host = world.env.launch_semirt("tvm", config=default_semirt_config())
    world.submit("request", enc, "model-a").result(timeout_s=30)
    trees["single_cold"] = world.take()
    for label in ("single_warm", "single_hot"):
        enc = world.seal("model-b", _input(b))
        world.tracer.clear()
        world.submit("request", enc, "model-b").result(timeout_s=30)
        trees[label] = world.take()
    world.host.destroy()
    return trees


def batches():
    """A hot batch of two, then one whose second member is foreign."""
    model = build_mobilenet()
    scheduler = SchedulerConfig(
        queue_depth=16, batch=BatchPolicy(batch_window_s=2.0, max_batch=2)
    )
    world = _World(
        {"m": model}, "tflm", tcs_count=4, scheduler=scheduler,
        users=("user", "other"),
    )
    x = _input(model)
    world.host.infer(world.seal("m", x), world.uid(), "m")  # make the pair hot
    trees = {}
    for label, second_user in (("batch_hot_2", "user"), ("batch_fallback", "other")):
        first = world.seal("m", x)
        second = world.seal("m", x, user=second_user)
        world.tracer.clear()
        leader = world.submit("request:leader", first, "m")
        # the leader must be inside its window before the follower lands
        _settle(lambda: world.host._forming is not None)
        follower = world.submit("request:follower", second, "m")
        leader.result(timeout_s=30)
        if second_user == "user":
            follower.result(timeout_s=30)
        else:
            with pytest.raises(InvocationError):
                follower.result(timeout_s=30)
        trees[label] = world.take(skip=("stage:runtime_init",))
    world.host.destroy()
    return trees


def streams():
    """A 3-token stream alone, then two streams sharing decode steps."""
    model = build_tinylm(seed=7)
    scheduler = SchedulerConfig(
        queue_depth=16,
        paced_service_s=0.03,
        batch=BatchPolicy(batch_window_s=0.05, max_batch=4),
    )
    world = _World({"lm": model}, "tvm", tcs_count=4, scheduler=scheduler)
    trees = {}
    enc = world.seal_stream("lm", [3, 1, 4], 3)
    world.tracer.clear()
    world.submit("request", enc, "lm", stream=True).result(timeout_s=30)
    trees["stream_solo_3"] = world.take()

    long_enc = world.seal_stream("lm", [3, 1, 4], 12)
    short_enc = world.seal_stream("lm", [2, 7], 3)
    world.tracer.clear()
    leader = world.submit("request:leader", long_enc, "lm", stream=True)
    _settle(lambda: leader.token_count >= 2)  # at least one solo step ran
    joiner = world.submit("request:joiner", short_enc, "lm", stream=True)
    joiner.result(timeout_s=30)
    leader.result(timeout_s=30)
    assert max(size for _, _, size in world.host.code.stream_log) == 2
    trees["stream_group_2"] = world.take(collapse=True)
    world.host.destroy()
    return trees


def cancelled():
    """A request cancelled while its ECALL runs: context cleared, not fetched."""
    model = build_mobilenet()
    world = _World(
        {"m": model}, "tvm",
        scheduler=SchedulerConfig(queue_depth=4, paced_service_s=0.3),
    )
    x = _input(model)
    world.host.infer(world.seal("m", x), world.uid(), "m")
    enc = world.seal("m", x)
    world.tracer.clear()
    future = world.submit("request", enc, "m")
    _settle(lambda: world.host.code.pending_outputs == 1)
    assert future.cancel()
    with pytest.raises(RequestCancelled):
        future.result(timeout_s=30)
    assert world.host.code.pending_outputs == 0
    tree = world.take()
    world.host.destroy()
    return {"single_cancelled": tree}


SCENARIOS = (singles, batches, streams, cancelled)


def capture():
    """Every scenario's trees, keyed by name (what the JSON file holds)."""
    trees = {}
    for scenario in SCENARIOS:
        trees.update(scenario())
    return trees


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda fn: fn.__name__)
def test_span_trees_match_the_pre_refactor_capture(scenario):
    golden = json.loads(GOLDEN.read_text())["trees"]
    for name, tree in scenario().items():
        assert tree == golden[name], name
