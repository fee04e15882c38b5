"""Calibrated cost model for the nine serving stages of Figure 4.

Every constant traces to a number the paper publishes; see DESIGN.md
section 6 for the source list.  The model is deliberately centralised so
each experiment reads its latencies from one place and the calibration
can be audited against the paper line by line.

Anchors (SGX2, TVM):

- hot TVM latencies are Table II's "Without" row (exec stage);
- TVM runtime-init is 39.6 / 21.3 / 15.0 % of exec (Section VI-A);
- a cold TVM-MBNET invocation is ~21x its hot latency and a warm one
  ~11x faster than cold, which pins ``enclave_init + key_retrieval``
  at ~1.26 s for a 64 MB enclave -- split between the hardware profile's
  init time and the fixed RA-TLS key-retrieval overhead below;
- decryption bandwidth inside the enclave is set towards the published
  21/11 split.

The measured split is 18.1x / 9.4x: the fixed part below leaves
``enclave_init + key_retrieval`` at 1.13 s, a stated deviation
(docs/calibration.md) that no constant here is tuned to close.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mlrt.zoo import ModelProfile
from repro.serverless.storage import StorageProfile
from repro.sgx.platform import HardwareProfile

MB = 1024 * 1024


@dataclass(frozen=True)
class CostModel:
    """Per-stage latency model, parameterised by hardware and storage."""

    hardware: HardwareProfile
    storage: StorageProfile
    #: AES-GCM decrypt throughput inside the enclave (bytes/second)
    decrypt_bandwidth: float = 800 * MB
    #: fixed RA-TLS overhead of key retrieval beyond quote+verify: two
    #: handshake round trips, KeyService processing, channel setup
    key_fetch_fixed_s: float = 0.69
    #: KEY_PROVISIONING over an *established* RA-TLS session (no new
    #: attestation): one encrypted RPC to KeyService.  Calibrated from the
    #: Table II deltas (strong isolation re-fetches keys per request and
    #: pays ~0.15-0.2 s on top of the runtime re-init).
    key_refetch_s: float = 0.15
    #: AEAD on a request/response payload (small, size-independent)
    request_decrypt_s: float = 0.002
    result_encrypt_s: float = 0.002

    # -- per-stage costs ---------------------------------------------------------

    def sandbox_init_s(self, platform_sandbox_init: float) -> float:
        """Sandbox initialisation is a platform property; pass-through."""
        return platform_sandbox_init

    def enclave_init_s(self, enclave_bytes: int, concurrent_launches: int = 1) -> float:
        """Enclave initialisation time for the given size and launch concurrency."""
        return self.hardware.enclave_init_time(enclave_bytes, concurrent_launches)

    def key_retrieval_s(self, concurrent_quotes: int = 1) -> float:
        """Mutual RA-TLS with KeyService + KEY_PROVISIONING round trip."""
        quote = self.hardware.quote_time(concurrent_quotes)
        # mutual attestation: verify the KeyService quote and our own.
        return self.key_fetch_fixed_s + quote + 2 * self.hardware.verify_s

    def key_retrieval_session_reused_s(self) -> float:
        """KEY_PROVISIONING when the RA-TLS session already exists.

        SeMIRT "maintains a secure channel with KeyService after the
        first remote attestation" (Section IV-B), so later fetches --
        user switches, or strong-isolation re-fetches -- skip attestation.
        """
        return self.key_refetch_s

    def model_load_s(self, model_bytes: int) -> float:
        """Download the encrypted artifact from cloud storage."""
        return self.storage.download_time(model_bytes)

    def model_decrypt_s(self, model_bytes: int, epc_slowdown: float = 1.0) -> float:
        """Copy into the enclave + AES-GCM decrypt + deserialise."""
        return (model_bytes / self.decrypt_bandwidth) * epc_slowdown

    def runtime_init_s(self, profile: ModelProfile, framework: str,
                       epc_slowdown: float = 1.0) -> float:
        """Model-runtime initialisation time, stretched under EPC pressure."""
        return profile.runtime_init_s(framework) * epc_slowdown

    def model_exec_s(self, profile: ModelProfile, framework: str,
                     epc_slowdown: float = 1.0) -> float:
        """Model execution time, stretched under EPC pressure."""
        return profile.exec_s(framework) * epc_slowdown

    # -- untrusted comparison paths (Figure 9 / 18) --------------------------------

    def untrusted_exec_s(self, profile: ModelProfile, framework: str) -> float:
        """Model execution outside SGX; same compute, no enclave effects."""
        return profile.exec_s(framework)

    def untrusted_runtime_init_s(self, profile: ModelProfile, framework: str) -> float:
        """Runtime initialisation outside SGX (same work, no enclave effects)."""
        return profile.runtime_init_s(framework)

    def untrusted_model_load_s(self, model_bytes: int) -> float:
        """Load without the in-enclave copy + decrypt."""
        return self.storage.download_time(model_bytes)
