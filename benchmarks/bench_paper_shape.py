"""Every table and figure keeps its paper shape.

One test per deterministic ``repro run NAME``: the harness runs exactly
as the CLI runs it (:data:`repro.cli.EXPERIMENTS`), the paper-style rows
are printed (``-s`` shows them) and the measurement's floor is
asserted.  ``python -m pytest benchmarks -q`` is the CI ``paper-shape``
job.
"""

import pytest

from repro import cli
from repro.experiments import warmpool


def check_table1(result):
    assert len(result["paper_rows"]) == 3


def check_fig8(result):
    # The paper's headline: enclave init + key fetch dominate TVM colds.
    for label, details in result["details"].items():
        if label.startswith("TVM"):
            fractions = details["fractions"]
            assert fractions.get("enclave_init", 0) + fractions.get(
                "key_retrieval", 0
            ) > 0.6, label


def check_fig9(result):
    mbnet = result["details"]["TVM-MBNET"]
    assert 15 < mbnet["cold"] / mbnet["hot"] < 27     # paper: ~21x
    assert 8 < mbnet["cold"] / mbnet["warm"] < 14     # paper: ~11x


def check_fig10(result):
    label, saving = result["peak"]
    assert label == "TFLM-RSNET" and saving > 0.75  # paper: 86.2%


def check_fig11(result):
    # 11a: CPU bound on SGX2 -- the knee sits past the physical core count
    by_n = dict(result["cpu_bound"])
    assert by_n[16] > by_n[12]
    # 11b: 128 MB EPC on SGX1 -- threads and the TFLM arena both help
    last = {label: rows[-1][1] for label, rows in result["epc_bound"].items()}
    assert last["TVM-4"] < last["TVM-1"]
    assert last["TFLM-4"] < last["TFLM-1"]
    assert last["TFLM-4"] < last["TVM-4"]


def check_fig12(result):
    # 12a: at 40 rps offered, Native's goodput collapses while SeSeMI and
    # Iso-reuse keep up with offered load (MBNET, SGX2).
    mbnet = {(row[0], row[1]): row[2] for row in result["mbnet"]}
    assert mbnet[("Native", 40)] < 15.0
    assert mbnet[("SeSeMI", 40)] > 38.0
    assert mbnet[("Iso-reuse", 40)] > 38.0
    # 12b: SeSeMI sustains a higher RSNET rate than Iso-reuse.
    rsnet = {(row[0], row[1]): row[2] for row in result["rsnet"]}
    assert rsnet[("SeSeMI", 8)] > rsnet[("Iso-reuse", 8)]
    # 12c/d: TFLM-4 sustains the highest rate under the 128MB EPC.
    sgx1 = {(row[0], row[1]): row[2] for row in result["sgx1"]}
    top_rate = max(rate for _, rate in sgx1)
    assert sgx1[("TFLM-4", top_rate)] > sgx1[("TVM-4", top_rate)]
    assert sgx1[("TFLM-4", top_rate)] > sgx1[("TVM-1", top_rate)]


def check_fig13(result):
    # Figure 13. Paper: DSNET Iso-reuse 3.35s vs SeSeMI 0.64s (81% better),
    # Native worse; RSNET 12.54s vs 8.28s.
    dsnet = {name: data["mean_s"] for name, data in result["latency"]["DSNET"].items()}
    assert dsnet["SeSeMI"] < dsnet["Iso-reuse"]
    assert dsnet["SeSeMI"] < dsnet["Native"]
    assert dsnet["SeSeMI"] < 1.5  # paper: 0.64s
    rsnet = result["latency"]["RSNET"]
    assert rsnet["SeSeMI"]["mean_s"] < rsnet["Iso-reuse"]["mean_s"]
    # Figure 14: GB-seconds with 4- vs 1-thread enclaves.
    for model, low, high in (("DSNET", 0.3, 0.8), ("RSNET", 0.25, 0.75)):
        cost = result["memory"][model]
        reduction = 1 - cost[4]["gb_seconds"] / cost[1]["gb_seconds"]
        assert low < reduction < high, model  # paper: 59% / 48%


def check_table2(result):
    for label, without, with_iso, slowdown, p_without, p_with in result["rows"]:
        assert slowdown > 1.2, label
        # Within 35% of the paper's measured slowdown factor per model.
        assert slowdown == pytest.approx(p_with / p_without, rel=0.35), label


def check_table34(result):
    # Table III. Paper: All-in-one 1700.50ms vs ~1456/1466ms -- a >= 10%
    # penalty from model-switch interference, with FnPacker matching One-to-one.
    means = {name: data["poisson"]["mean_s"] for name, data in result.items()}
    assert means["All-in-one"] > 1.10 * means["One-to-one"]
    assert abs(means["FnPacker"] - means["One-to-one"]) < 0.15 * means["One-to-one"]
    # Table IV.
    one = result["One-to-one"]["sessions"]
    packer = result["FnPacker"]["sessions"]
    allinone = result["All-in-one"]["sessions"]
    # Session 1: One-to-one pays a cold start for each of m2, m3, m4 ...
    for model in ("m2", "m3", "m4"):
        assert one[f"1:{model}"] > 3.0, model
    # ... FnPacker cold-starts only the first infrequent model.
    assert packer["1:m2"] > 3.0
    assert packer["1:m3"] < 3.0
    assert packer["1:m4"] < 3.0
    # All-in-one avoids colds (warm switches) but pays them everywhere.
    for model in ("m2", "m3", "m4"):
        assert allinone[f"1:{model}"] < one[f"1:{model}"], model
    # Session 2 reuses session-1 sandboxes: no cold starts anywhere.
    for sessions in (one, packer, allinone):
        for model in ("m0", "m1", "m2", "m3", "m4"):
            assert sessions[f"2:{model}"] < 3.0, model


def check_fig15(result):
    sgx2 = {(size, n): t for size, n, t in result["init"]["sgx2"]}
    assert sgx2[(256, 16)] == pytest.approx(4.06, rel=0.05)  # appendix anchor
    sgx1 = {(size, n): t for size, n, t in result["init"]["sgx1"]}
    # SGX1 grows much faster: launching 16x128MB overcommits the EPC.
    assert sgx1[(128, 16)] / sgx1[(128, 1)] > sgx2[(128, 16)] / sgx2[(128, 1)]
    # Figure 16: remote attestation vs concurrent quotes.
    dcap = {n: t for n, t, _ in result["quote"]["sgx2"]}
    epid = {n: t for n, t, _ in result["quote"]["sgx1"]}
    assert dcap[1] < 0.1            # paper: <0.1s at 1 enclave
    assert 0.8 < dcap[16] < 1.2     # paper: ~1s at 16
    assert epid[1] > dcap[1]        # EPID pays the IAS round trip


def check_fig17(result):
    for label, shared_sgx, shared_plain, overhead in result["rows"]:
        # The stages shared with the plain path barely differ (64GB EPC).
        assert shared_sgx == pytest.approx(shared_plain, rel=0.05), label
        # The TEE overhead is dominated by enclave init + attestation.
        details = result["details"][label]["sgx"]
        trust = details.get("enclave_init", 0) + details.get("key_retrieval", 0)
        assert trust / overhead > 0.8, label


def check_warmpool(result):
    assert result["reduction"] >= warmpool.REDUCTION_GATE
    assert result["scale_to_zero"]["scaled_to_floor"]
    # keep-alive alone must already beat the no-keep-alive baseline on
    # both workloads; predictive must never be worse than plain LCS
    for workload in warmpool.WORKLOADS:
        rows = result["workloads"][workload]
        assert rows["lcs"]["cold_ratio"] < rows["none"]["cold_ratio"] / 3
        assert rows["lcs+predictive"]["cold"] <= rows["lcs"]["cold"]


CHECKS = {
    "table1": check_table1,
    "fig8": check_fig8,
    "fig9": check_fig9,
    "fig10": check_fig10,
    "fig11": check_fig11,
    "fig12": check_fig12,
    "fig13": check_fig13,
    "table2": check_table2,
    "table34": check_table34,
    "fig15": check_fig15,
    "fig17": check_fig17,
    "warmpool": check_warmpool,
}


@pytest.mark.parametrize("name", CHECKS)
def test_paper_shape(name):
    _description, module, kwargs = cli.EXPERIMENTS[name]
    result = module.run(**kwargs)
    print()
    print(module.format_report(result))
    CHECKS[name](result)
