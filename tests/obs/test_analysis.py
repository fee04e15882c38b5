"""Critical-path analysis: trees, adoption links, and sim parity."""

import pytest

from repro.core.stages import Stage
from repro.errors import SeSeMIError
from repro.experiments.common import deploy_single_model, make_driver, make_testbed
from repro.obs import analysis
from repro.obs.tracer import Tracer
from repro.workloads.arrival import Arrival


def test_critical_path_picks_latest_finishing_chain():
    tracer = Tracer()
    root = tracer.start_span("request")
    fast = tracer.start_span("fast", parent=root)
    fast.end()
    slow = tracer.start_span("slow", parent=root)
    inner = tracer.start_span("inner", parent=slow)
    inner.end()
    slow.end()
    root.end()
    path = analysis.critical_path(tracer.spans, root)
    assert [s.name for s in path] == ["request", "fast", "slow", "inner"]


def test_find_root_filters_by_name_and_attrs():
    tracer = Tracer()
    tracer.start_span("container.startup", container_id="c-1").end()
    tracer.start_span("container.startup", container_id="c-2").end()
    found = analysis.find_root(
        tracer.spans, name="container.startup", container_id="c-2"
    )
    assert found.attributes["container_id"] == "c-2"
    with pytest.raises(SeSeMIError):
        analysis.find_root(tracer.spans, name="container.startup", container_id="c-9")


def test_stage_ratios_normalise_and_exclude():
    ratios = analysis.stage_ratios(
        {"sandbox_init": 5.0, "enclave_init": 3.0, "model_inference": 1.0}
    )
    assert "sandbox_init" not in ratios
    assert ratios["enclave_init"] == pytest.approx(0.75)
    assert sum(ratios.values()) == pytest.approx(1.0)


def _one_traced_cold_request():
    bed = make_testbed(num_nodes=1, traced=True)
    deploy_single_model(bed, "SeSeMI", "MBNET", "tvm")
    driver = make_driver(bed)
    driver.submit_arrivals([Arrival(time=0.0, model_id="m", user_id="u")])
    report = driver.run(until=400)
    (result,) = report.results
    return bed.tracer.finished_spans(), result


def test_sim_stage_seconds_match_invocation_result():
    """The analyzer reproduces the platform's stage accounting from spans."""
    spans, result = _one_traced_cold_request()
    (root,) = analysis.request_roots(spans)
    stages = analysis.stage_seconds(spans, root)
    assert set(stages) == set(result.stage_seconds)
    for stage, seconds in result.stage_seconds.items():
        assert stages[stage] == pytest.approx(seconds, abs=1e-9), stage


def test_adoption_link_folds_in_startup_stages():
    spans, _ = _one_traced_cold_request()
    (root,) = analysis.request_roots(spans)
    with_startup = analysis.stage_seconds(spans, root)
    without = analysis.stage_seconds(spans, root, follow_adopted_startup=False)
    assert Stage.SANDBOX_INIT.value in with_startup
    assert Stage.ENCLAVE_INIT.value in with_startup
    assert Stage.SANDBOX_INIT.value not in without
    assert Stage.ENCLAVE_INIT.value not in without


def test_concurrent_sim_requests_keep_separate_traces():
    """Interleaved sim processes must not cross-contaminate span trees."""
    bed = make_testbed(num_nodes=1, traced=True)
    deploy_single_model(bed, "SeSeMI", "MBNET", "tvm", tcs_count=2)
    driver = make_driver(bed)
    driver.submit_arrivals(
        [
            Arrival(time=0.0, model_id="m", user_id="u"),
            Arrival(time=0.0, model_id="m", user_id="u"),
        ]
    )
    driver.run(until=800)
    spans = bed.tracer.finished_spans()
    roots = analysis.request_roots(spans)
    assert len(roots) == 2
    assert roots[0].trace_id != roots[1].trace_id
    trees = [analysis.subtree(spans, root) for root in roots]
    for root, tree in zip(roots, trees):
        assert {s.trace_id for s in tree} == {root.trace_id}
    ids = [{s.span_id for s in tree} for tree in trees]
    assert not (ids[0] & ids[1])


def test_breakdown_table_rows_per_request():
    spans, _ = _one_traced_cold_request()
    order = (Stage.ENCLAVE_INIT.value, Stage.MODEL_INFERENCE.value, "nonexistent")
    (row,) = analysis.breakdown_table(spans, order)
    assert set(row) == set(order)
    assert row["nonexistent"] == 0.0
    assert row[Stage.MODEL_INFERENCE.value] > 0.0
