"""Golden span trees of the simulation twin: every design's stage charge, pinned.

``tests/core/data/sim_span_trees.json`` was first captured by
``scripts/make_span_goldens.py`` from commit 842e36c -- the last tree in
which each actor of ``core/simbridge.py`` and ``core/batching.py``
charged its Figure-4 stages by hand -- *before* the five actors moved
onto one stage driver.  Each scenario below serves a short arrival
sequence on a traced one-node testbed and keeps two things:

- the tracer's forest as ``[span name, status, sorted attribute keys,
  children]`` rows (``fig8``/``fig17`` and ``repro.obs.analysis`` key on
  these names, parents and attributes);
- per result, in submission order, ``[kind, stage_seconds keys]`` -- the
  key order is the order a report lists a request's stages in.

The file was regenerated once on purpose since, for two consistency
fixes the driver made and nothing else: the batching hot path's request
decryption and result encryption became ``stage:`` spans like every
other design's (its batched execution stays span-less: a follower's
wait is longer than the seconds it is charged), and the Iso-reuse and
Native key-retrieval spans gained the ``session_reused`` attribute
SeSeMI's always had.  Every ``results`` row is unchanged.
"""

import json
import pathlib
from functools import partial

import pytest

from repro.core.batching import BatchingSemirtActor, BatchPolicy
from repro.core.simbridge import (
    IsoReuseSimActor,
    NativeSimActor,
    SemirtSimActor,
    UntrustedSimActor,
    servable_map,
)
from repro.experiments.common import action_budget, make_driver, make_testbed
from repro.mlrt.zoo import profile
from repro.serverless.action import ActionSpec
from repro.workloads.arrival import Arrival
from tests.core.test_semirt_span_trees import span_tree

GOLDEN = pathlib.Path(__file__).parent / "data" / "sim_span_trees.json"


def _serve(actor, arrivals, concurrency=1):
    """Serve ``(time, model_id, user_id)`` arrivals on one traced container."""
    bed = make_testbed(num_nodes=1, traced=True)
    models = servable_map(
        [("a", profile("MBNET"), "tvm"), ("b", profile("DSNET"), "tvm")]
    )
    budget = max(action_budget(m, concurrency) for m in models.values())
    spec = ActionSpec(name="ep", image="t", memory_budget=budget,
                      concurrency=concurrency)
    bed.platform.deploy(spec, partial(actor, models, bed.cost))
    driver = make_driver(bed)
    driver.submit_arrivals(
        [Arrival(time=t, model_id=m, user_id=u) for t, m, u in arrivals]
    )
    report = driver.run(until=2000)
    results = sorted(
        report.results, key=lambda r: (r.submitted_at, r.request.request_id)
    )
    assert len(results) == len(arrivals)
    return {
        "spans": span_tree(bed.tracer.finished_spans()),
        "results": [[r.kind, list(r.stage_seconds)] for r in results],
    }


def sesemi():
    """Cold, then warm (model switch), then hot; and the strong-isolation build."""
    return {
        "sesemi_cold_warm_hot": _serve(
            SemirtSimActor, [(0.0, "a", "u"), (30.0, "b", "u"), (60.0, "b", "u")]
        ),
        "sesemi_strong_isolation": _serve(
            partial(SemirtSimActor, key_cache=False, reuse_runtime=False),
            [(0.0, "a", "u"), (30.0, "a", "u")],
        ),
    }


def iso_reuse():
    """A key switch: the second user's fetch rides the live KeyService session."""
    return {
        "iso_reuse_key_switch": _serve(
            IsoReuseSimActor,
            [(0.0, "a", "alice"), (30.0, "a", "bob"), (60.0, "a", "bob")],
        ),
    }


def native():
    """A fresh enclave per request, twice."""
    return {"native": _serve(NativeSimActor, [(0.0, "a", "u"), (30.0, "a", "u")])}


def untrusted():
    """Uncached (load + init), then cached (execution only)."""
    return {
        "untrusted_uncached_cached": _serve(
            UntrustedSimActor, [(0.0, "a", "u"), (30.0, "a", "u")]
        ),
    }


def batching():
    """One request to make the pair hot, then a leader and its follower."""
    actors = []

    def actor(models, cost):
        actors.append(BatchingSemirtActor(
            models, cost, tcs_count=4, policy=BatchPolicy(max_batch=4)
        ))
        return actors[-1]

    trees = {
        "batching_leader_follower": _serve(
            actor,
            [(0.0, "a", "u"), (120.0, "a", "u"), (120.0, "a", "u")],
            concurrency=4,
        ),
    }
    (only,) = actors
    assert (only.batches_executed, only.batched_requests) == (1, 2)
    return trees


SCENARIOS = (sesemi, iso_reuse, native, untrusted, batching)


def capture():
    """Every scenario's trees, keyed by name (what the JSON file holds)."""
    trees = {}
    for scenario in SCENARIOS:
        trees.update(scenario())
    return trees


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda fn: fn.__name__)
def test_sim_span_trees_match_the_golden(scenario):
    golden = json.loads(GOLDEN.read_text())["trees"]
    for name, tree in scenario().items():
        assert tree == golden[name], name
