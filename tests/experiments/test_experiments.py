"""Smoke + shape checks for every experiment harness.

These assert the *paper-shape* properties each figure/table is about,
on reduced parameter grids so the whole file stays fast.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.stages import Stage
from repro.experiments import fig8, fig9, fig10, fig11, fig15, fig17, table1, table2
from repro.experiments.common import format_table


def test_table1_profiles_and_measured_ordering():
    result = table1.run()
    assert len(result["paper_rows"]) == 3
    for name, weights, tvm_buf, tflm_buf in result["measured_rows"]:
        assert tflm_buf < tvm_buf
        assert tvm_buf > weights  # TVM buffers embed weight copies


def test_fig8_trust_stages_dominate_tvm_cold():
    """Paper: enclave init + key fetching > 60% of cold latency for TVM."""
    for model in ("MBNET", "RSNET", "DSNET"):
        stages = fig8.cold_stage_seconds(model, "tvm")
        total = sum(stages.values())
        trust = stages[Stage.ENCLAVE_INIT.value] + stages[Stage.KEY_RETRIEVAL.value]
        assert trust / total > 0.60, model


def test_fig9_speedups_match_paper():
    paths = fig9._run_sesemi_paths("MBNET", "tvm")
    assert paths["cold"] / paths["hot"] == pytest.approx(21.0, rel=0.25)
    assert paths["cold"] / paths["warm"] == pytest.approx(11.0, rel=0.3)


def test_fig9_hot_close_to_untrusted_cached():
    paths = fig9._run_sesemi_paths("DSNET", "tvm")
    paths.update(fig9._run_untrusted("DSNET", "tvm"))
    assert paths["hot"] == pytest.approx(paths["untrusted_cached"], rel=0.1)
    assert paths["warm"] == pytest.approx(paths["untrusted"], rel=0.8)


def test_fig10_peak_saving_near_paper():
    result = fig10.run()
    label, saving = result["peak"]
    assert label == "TFLM-RSNET"
    assert saving == pytest.approx(0.862, abs=0.08)  # paper: 86.2%


def test_fig10_tflm_saves_more_than_tvm():
    result = fig10.run()
    by_label = {row[0]: row[-1] for row in result["rows"]}  # 8-thread saving
    for model in ("MBNET", "RSNET", "DSNET"):
        assert by_label[f"TFLM-{model}"] > by_label[f"TVM-{model}"]


def test_fig11a_knee_after_core_count():
    rows = dict(fig11.run_cpu_bound(concurrency_levels=(1, 12, 16)))
    assert rows[12] < rows[16]           # queueing past 12 cores
    assert rows[12] / rows[1] < 1.5      # nearly flat below


def test_fig11b_thread_sharing_wins_under_epc_pressure():
    series = fig11.run_epc_bound(concurrency_levels=(1, 8))
    assert series["TVM-4"][-1][1] < series["TVM-1"][-1][1]
    assert series["TFLM-4"][-1][1] < series["TFLM-1"][-1][1]
    assert series["TFLM-4"][-1][1] < series["TVM-4"][-1][1]


def test_table2_isolation_slowdown():
    result = table2.run()
    for label, without, with_iso, slowdown, p_without, p_with in result["rows"]:
        assert with_iso > without
        paper_slowdown = p_with / p_without
        assert slowdown == pytest.approx(paper_slowdown, rel=0.35), label


def test_fig15_anchor_and_monotonicity():
    result = fig15.run()
    sgx2 = {(size, n): t for size, n, t in result["init"]["sgx2"]}
    assert sgx2[(256, 16)] == pytest.approx(4.06, rel=0.05)
    assert sgx2[(256, 1)] < sgx2[(256, 16)]
    assert sgx2[(64, 8)] < sgx2[(256, 8)]


def test_fig16_quote_scaling():
    result = fig15.run()
    dcap = dict((n, t) for n, t, _ in result["quote"]["sgx2"])
    assert dcap[1] < 0.1 and 0.8 < dcap[16] < 1.2
    epid = dict((n, t) for n, t, _ in result["quote"]["sgx1"])
    assert epid[1] > dcap[1]


def test_fig17_shared_stages_equal():
    """Paper: the stages shared with the non-SGX path barely differ."""
    result = fig17.run()
    for label, shared_sgx, shared_plain, overhead in result["rows"]:
        assert shared_sgx == pytest.approx(shared_plain, rel=0.05), label
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
