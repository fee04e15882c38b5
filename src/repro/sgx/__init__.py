"""Functional model of Intel SGX.

The paper relies on four SGX capabilities; each maps to a module here:

- enclaves with a minimal ECALL/OCALL surface and TCS-bounded concurrency
  (:mod:`repro.sgx.enclave`);
- enclave identity via MRENCLAVE (:mod:`repro.sgx.measurement`);
- remote attestation with EPID (SGX1) and DCAP (SGX2) flavours
  (:mod:`repro.sgx.attestation`) and RA-TLS channels (:mod:`repro.sgx.ratls`);
- the EPC memory limit and its paging cost (:mod:`repro.sgx.epc`), plus
  per-generation hardware timing profiles (:mod:`repro.sgx.platform`).
"""
