"""Smoke + shape checks for every experiment harness.

A paper claim is checked by evaluating the module's ``ANCHORS`` --
the one place its number and bound are stated -- on a reduced grid
where the test has one; the structural assertions beside them name no
paper number.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.experiments import fig8, fig9, fig10, fig11, fig15, fig17, table1, table2
from repro.experiments.common import format_table


def assert_anchors_hold(module, result, prefix):
    """Every gated anchor of ``module`` whose label starts with ``prefix``
    holds on ``result`` (a reduced grid carries the keys it reads)."""
    anchors = [a for a in module.ANCHORS if a.gated and a.label.startswith(prefix)]
    assert anchors, prefix
    for anchor in anchors:
        measured, paper, word = anchor.evaluate(result)
        assert word == "holds", (anchor.label, measured, paper)


def test_table1_profiles_and_measured_ordering():
    result = table1.run()
    assert len(result["paper_rows"]) == 3
    # TFLM buffer < TVM buffer, and TVM buffers embed weight copies
    assert_anchors_hold(table1, result, "")


def test_fig8_trust_stages_dominate_tvm_cold():
    """Paper: enclave init + key fetching dominate cold latency for TVM."""
    assert_anchors_hold(fig8, fig8.run(), "TVM")


def test_fig9_speedups_match_paper():
    paths = fig9._run_sesemi_paths("MBNET", "tvm")
    assert_anchors_hold(fig9, {"details": {"TVM-MBNET": paths}}, "TVM-MBNET")


def test_fig9_hot_close_to_untrusted_cached():
    paths = fig9._run_sesemi_paths("DSNET", "tvm")
    paths.update(fig9._run_untrusted("DSNET", "tvm"))
    assert paths["hot"] == pytest.approx(paths["untrusted_cached"], rel=0.1)
    assert paths["warm"] == pytest.approx(paths["untrusted"], rel=0.8)


def test_fig10_peak_saving_near_paper():
    result = fig10.run()
    label, saving = result["peak"]
    assert label == "TFLM-RSNET"
    assert_anchors_hold(fig10, result, "peak saving")


def test_fig10_tflm_saves_more_than_tvm():
    result = fig10.run()
    by_label = {row[0]: row[-1] for row in result["rows"]}  # 8-thread saving
    for model in ("MBNET", "RSNET", "DSNET"):
        assert by_label[f"TFLM-{model}"] > by_label[f"TVM-{model}"]


def test_fig11a_knee_after_core_count():
    rows = fig11.run_cpu_bound(concurrency_levels=(1, 12, 16))
    assert_anchors_hold(fig11, {"cpu_bound": rows}, "11a")  # queueing past 12 cores
    assert dict(rows)[12] / dict(rows)[1] < 1.5  # nearly flat below


def test_fig11b_thread_sharing_wins_under_epc_pressure():
    series = fig11.run_epc_bound(concurrency_levels=(1, 8))
    assert_anchors_hold(fig11, {"epc_bound": series}, "11b")


def test_table2_isolation_slowdown():
    result = table2.run()
    for _label, without, with_iso, *_paper in result["rows"]:
        assert with_iso > without
    assert_anchors_hold(table2, result, "TVM")


def test_fig15_anchor_and_monotonicity():
    result = fig15.run()
    assert_anchors_hold(fig15, result, "15")
    sgx2 = {(size, n): t for size, n, t in result["init"]["sgx2"]}
    assert sgx2[(256, 1)] < sgx2[(256, 16)]
    assert sgx2[(64, 8)] < sgx2[(256, 8)]


def test_fig16_quote_scaling():
    assert_anchors_hold(fig15, fig15.run(), "16")


def test_fig17_shared_stages_equal():
    """Paper: the stages shared with the non-SGX path barely differ."""
    result = fig17.run()
    assert_anchors_hold(fig17, result, "shared stages")
    for label, shared_sgx, shared_plain, overhead in result["rows"]:
        assert overhead > 0


def test_format_table_alignment():
    text = format_table(["a", "bb"], [(1, 2.5), ("xyz", 10)])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")


def test_reports_render():
    for module in (table1, fig10, fig15):
        text = module.format_report(module.run())
        assert isinstance(text, str) and len(text) > 50


def test_fnpacker_metrics_do_not_depend_on_the_hash_seed():
    """Placement picks a home invoker per action name; ``hash(str)`` is
    salted per process, so the digest must be a process-stable one or
    Tables III/IV differ from one interpreter to the next."""
    code = (
        "import json\n"
        "from repro.experiments import table34\n"
        "print(json.dumps(table34.run(), sort_keys=True))\n"
    )
    outputs = [
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONHASHSEED=seed),
        ).stdout
        for seed in ("0", "3")
    ]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["One-to-one"]["cold_starts"] > 0
