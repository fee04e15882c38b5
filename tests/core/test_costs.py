"""Cost-model calibration anchors (DESIGN.md section 6)."""

import pytest

from repro.core.costs import CostModel
from repro.experiments import fig9
from repro.mlrt.zoo import profile
from repro.serverless.storage import NFS
from repro.sgx.platform import SGX1, SGX2

MB = 1024 * 1024


@pytest.fixture()
def cost():
    return CostModel(hardware=SGX2, storage=NFS)


def test_hot_path_anchor(cost):
    """Hot TVM latencies are the Table II 'Without' row."""
    hot = (
        cost.request_decrypt_s
        + cost.model_exec_s(profile("MBNET"), "tvm")
        + cost.result_encrypt_s
    )
    assert hot == pytest.approx(0.06579 + 0.004, rel=0.01)


def _anchor(label):
    """Figure 9's anchor ``label``: its band bounds these cost-model checks."""
    return next(anchor for anchor in fig9.ANCHORS if anchor.label == label)


def test_cold_to_hot_ratio_anchor(cost):
    """TVM-MBNET cold over hot is in Figure 9's band (Section VI-A)."""
    prof = profile("MBNET")
    cold = (
        cost.enclave_init_s(prof.tvm_enclave_bytes)
        + cost.key_retrieval_s()
        + cost.model_load_s(prof.model_bytes)
        + cost.model_decrypt_s(prof.model_bytes)
        + cost.runtime_init_s(prof, "tvm")
        + cost.request_decrypt_s
        + cost.model_exec_s(prof, "tvm")
        + cost.result_encrypt_s
    )
    hot = cost.request_decrypt_s + cost.model_exec_s(prof, "tvm") + cost.result_encrypt_s
    anchor = _anchor("TVM-MBNET cold/hot")
    assert anchor.lo <= cold / hot <= anchor.hi


def test_cold_to_warm_ratio_anchor(cost):
    """TVM-MBNET cold over warm is in Figure 9's band (Section VI-A)."""
    prof = profile("MBNET")
    cold = (
        cost.enclave_init_s(prof.tvm_enclave_bytes)
        + cost.key_retrieval_s()
        + cost.model_load_s(prof.model_bytes)
        + cost.model_decrypt_s(prof.model_bytes)
        + cost.runtime_init_s(prof, "tvm")
        + cost.request_decrypt_s
        + cost.model_exec_s(prof, "tvm")
        + cost.result_encrypt_s
    )
    warm = (
        cost.model_load_s(prof.model_bytes)
        + cost.model_decrypt_s(prof.model_bytes)
        + cost.runtime_init_s(prof, "tvm")
        + cost.request_decrypt_s
        + cost.model_exec_s(prof, "tvm")
        + cost.result_encrypt_s
    )
    anchor = _anchor("TVM-MBNET cold/warm")
    assert anchor.lo <= cold / warm <= anchor.hi


def test_key_refetch_cheaper_than_full_attestation(cost):
    assert cost.key_retrieval_session_reused_s() < cost.key_retrieval_s() / 4


def test_key_retrieval_grows_with_quote_contention(cost):
    assert cost.key_retrieval_s(16) > cost.key_retrieval_s(1)


def test_epc_slowdown_scales_stage_costs(cost):
    prof = profile("RSNET")
    assert cost.model_exec_s(prof, "tvm", epc_slowdown=2.0) == pytest.approx(
        2 * cost.model_exec_s(prof, "tvm")
    )
    assert cost.model_decrypt_s(prof.model_bytes, 3.0) == pytest.approx(
        3 * cost.model_decrypt_s(prof.model_bytes)
    )


def test_untrusted_paths_skip_sgx_costs(cost):
    prof = profile("DSNET")
    assert cost.untrusted_exec_s(prof, "tvm") == prof.tvm_exec_s
    assert cost.untrusted_model_load_s(prof.model_bytes) == pytest.approx(
        NFS.download_time(prof.model_bytes)
    )


def test_sgx1_key_retrieval_slower(cost):
    sgx1_cost = CostModel(hardware=SGX1, storage=NFS)
    assert sgx1_cost.key_retrieval_s() > cost.key_retrieval_s()
