"""SGX platforms (hardware profiles, timing model) and sealed storage."""

import pytest

from repro.errors import SealingError
from repro.experiments import fig15
from repro.sgx.enclave import EnclaveBuildConfig, EnclaveCode
from repro.sgx.epc import GB, MB
from repro.sgx.platform import SGX1, SGX2, SgxPlatform, profile_with_epc
from repro.sgx.sealing import SealingService


class Program(EnclaveCode):
    pass


class OtherProgram(EnclaveCode):
    pass


def test_profiles_match_paper_constants():
    assert SGX1.epc_bytes == 128 * MB
    assert SGX2.epc_bytes == 64 * GB
    assert SGX1.attestation.value == "epid"
    assert SGX2.attestation.value == "dcap"


def _anchor(label):
    """Figure 15/16's anchor ``label``: its bounds are these checks' bounds."""
    return next(anchor for anchor in fig15.ANCHORS if anchor.label == label)


def test_enclave_init_time_anchor():
    """Appendix C: 16 concurrent 256 MB launches on SGX2, each in Figure 15's band."""
    anchor = _anchor("15: 16 concurrent 256 MB launches on SGX2, each")
    assert anchor.lo <= SGX2.enclave_init_time(256 * MB, 16) <= anchor.hi


def test_enclave_init_monotone_in_size_and_concurrency():
    for hw in (SGX1, SGX2):
        assert hw.enclave_init_time(64 * MB) < hw.enclave_init_time(256 * MB)
        assert hw.enclave_init_time(64 * MB, 1) < hw.enclave_init_time(64 * MB, 8)


def test_sgx1_init_pays_epc_paging():
    """Launching beyond the 128MB EPC is disproportionately slow on SGX1."""
    over = SGX1.enclave_init_time(256 * MB, 2)
    under = SGX1.enclave_init_time(32 * MB, 2)
    assert over / under > (256 / 32)  # super-linear


def test_quote_time_anchor():
    """One DCAP quote and sixteen concurrent ones on SGX2 meet Figure 16's
    bounds (Appendix C)."""
    assert SGX2.quote_time(1) < _anchor("16: DCAP quote, 1 enclave").hi
    sixteen = _anchor("16: DCAP quote, 16 concurrent")
    assert sixteen.lo < SGX2.quote_time(16) < sixteen.hi


def test_epid_slower_than_dcap():
    assert SGX1.quote_time(1) > SGX2.quote_time(1)
    assert SGX1.attestation_round_time(1) > SGX2.attestation_round_time(1)


def test_profile_with_epc_override():
    shrunk = profile_with_epc(SGX2, 512 * MB)
    assert shrunk.epc_bytes == 512 * MB
    assert shrunk.attestation == SGX2.attestation


def test_platform_tracks_live_enclaves():
    platform = SgxPlatform(SGX2)
    enclave = platform.create_enclave(Program(), EnclaveBuildConfig(memory_bytes=MB))
    assert platform.live_enclaves == 1
    enclave.destroy()
    assert platform.live_enclaves == 0


def test_quote_requires_local_report():
    p1, p2 = SgxPlatform(SGX2), SgxPlatform(SGX2)
    enclave = p1.create_enclave(Program(), EnclaveBuildConfig(memory_bytes=MB))
    report = enclave.get_report()
    from repro.errors import EnclaveError

    with pytest.raises(EnclaveError):
        p2.quote(report)


def test_seal_unseal_same_identity():
    platform = SgxPlatform(SGX2)
    seal = SealingService()
    enclave = platform.create_enclave(Program(), EnclaveBuildConfig(memory_bytes=MB))
    blob = seal.seal(enclave, b"cached keys")
    assert seal.unseal(enclave, blob) == b"cached keys"


def test_unseal_other_identity_fails():
    platform = SgxPlatform(SGX2)
    seal = SealingService()
    a = platform.create_enclave(Program(), EnclaveBuildConfig(memory_bytes=MB))
    b = platform.create_enclave(OtherProgram(), EnclaveBuildConfig(memory_bytes=MB))
    blob = seal.seal(a, b"secret")
    with pytest.raises(SealingError):
        seal.unseal(b, blob)


def test_unseal_other_platform_root_fails():
    platform = SgxPlatform(SGX2)
    enclave = platform.create_enclave(Program(), EnclaveBuildConfig(memory_bytes=MB))
    blob = SealingService(root_secret=b"a" * 32).seal(enclave, b"secret")
    with pytest.raises(SealingError):
        SealingService(root_secret=b"b" * 32).unseal(enclave, blob)


def test_unseal_tampered_blob_fails():
    platform = SgxPlatform(SGX2)
    seal = SealingService()
    enclave = platform.create_enclave(Program(), EnclaveBuildConfig(memory_bytes=MB))
    blob = bytearray(seal.seal(enclave, b"secret"))
    blob[-1] ^= 1
    with pytest.raises(SealingError):
        seal.unseal(enclave, bytes(blob))
