"""SGX platforms: hardware profiles, enclave launch, timing model.

A :class:`SgxPlatform` is one SGX-capable machine.  It owns an EPC
manager and a quoting enclave, launches enclaves (the aesmd role), and
exposes the *timing model* for the expensive hardware operations the
paper measures in its appendix:

- enclave initialisation time grows with the enclave's committed memory
  and with the number of enclaves being launched concurrently (Fig. 15);
- quote generation contends on the single quoting enclave (Fig. 16);
- EPID attestation (SGX1) pays an Internet round trip to the Intel
  Attestation Service, DCAP (SGX2) verifies locally.

Profiles :data:`SGX1` and :data:`SGX2` are calibrated against the
published numbers (e.g. 16 concurrent 256 MB enclaves at ~4.06 s each).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.crypto.signature import SigningKey
from repro.errors import EnclaveError
from repro.sgx.attestation import (
    AttestationKind,
    AttestationService,
    Quote,
    QuotingEnclave,
    Report,
)
from repro.sgx.enclave import Enclave, EnclaveBuildConfig, EnclaveCode
from repro.sgx.epc import GB, MB, EpcManager
from repro.sgx.sealing import SealingService

_platform_ids = itertools.count(1)


@dataclass(frozen=True)
class HardwareProfile:
    """Cost/capacity parameters of one SGX hardware generation."""

    name: str
    attestation: AttestationKind
    epc_bytes: int
    #: fixed enclave-creation cost (ECREATE, EINIT) in seconds
    init_base_s: float
    #: per-MB cost of EADD/EEXTEND over the committed memory, seconds/MB
    init_per_mb_s: float
    #: slowdown per additional enclave launching concurrently
    init_concurrency_slope: float
    #: quote generation latency with an idle quoting enclave, seconds
    quote_base_s: float
    #: slowdown per additional concurrent quote request
    quote_concurrency_slope: float
    #: verification latency of one quote (IAS round trip for EPID), seconds
    verify_s: float

    # -- timing model -----------------------------------------------------------

    def enclave_init_time(self, memory_bytes: int, concurrent: int = 1) -> float:
        """Seconds to initialise one enclave of ``memory_bytes``.

        ``concurrent`` counts enclaves being launched at the same time on
        this machine (including this one); launches contend on the EPC
        add/extend path, so the per-enclave latency grows with it.
        On EPC-limited hardware the growth also reflects paging when the
        combined launch set exceeds the EPC.
        """
        concurrent = max(1, concurrent)
        base = self.init_base_s + self.init_per_mb_s * (memory_bytes / MB)
        contention = 1.0 + self.init_concurrency_slope * (concurrent - 1)
        paging = 1.0
        total_launch_bytes = memory_bytes * concurrent
        if total_launch_bytes > self.epc_bytes:
            paging = 1.0 + 1.5 * (total_launch_bytes / self.epc_bytes - 1.0)
        return base * contention * paging

    def quote_time(self, concurrent: int = 1) -> float:
        """Seconds to generate one quote with ``concurrent`` requesters."""
        concurrent = max(1, concurrent)
        return self.quote_base_s * (
            1.0 + self.quote_concurrency_slope * (concurrent - 1)
        )

    def attestation_round_time(self, concurrent: int = 1) -> float:
        """Quote generation + verification (the paper's 'RA' cost)."""
        return self.quote_time(concurrent) + self.verify_s


#: SGX1 (Xeon W-1290P in the paper): 128 MB EPC, EPID attestation via IAS.
SGX1 = HardwareProfile(
    name="sgx1",
    attestation=AttestationKind.EPID,
    epc_bytes=128 * MB,
    init_base_s=0.06,
    init_per_mb_s=0.0045,
    init_concurrency_slope=0.45,
    quote_base_s=0.32,
    quote_concurrency_slope=0.6,
    verify_s=0.35,
)

#: SGX2 (Xeon Gold 5317 in the paper): 64 GB EPC, DCAP/ECDSA attestation.
#: init calibrated so 16 concurrent 256 MB launches average ~4.06 s each
#: (Appendix C) while a cold TVM-MBNET invocation aims at ~21x its hot
#: latency (Section VI-A; measured 18.1x, docs/calibration.md).
SGX2 = HardwareProfile(
    name="sgx2",
    attestation=AttestationKind.DCAP,
    epc_bytes=64 * GB,
    init_base_s=0.05,
    init_per_mb_s=0.0033,
    init_concurrency_slope=0.236,
    quote_base_s=0.08,
    quote_concurrency_slope=0.75,
    verify_s=0.05,
)


def profile_with_epc(profile: HardwareProfile, epc_bytes: int) -> HardwareProfile:
    """A copy of ``profile`` with a different configured EPC size."""
    return replace(profile, epc_bytes=epc_bytes)


class SgxPlatform:
    """One SGX machine: EPC, quoting enclave, live-enclave registry."""

    def __init__(
        self,
        profile: HardwareProfile = SGX2,
        attestation_service: Optional[AttestationService] = None,
        platform_id: Optional[str] = None,
    ) -> None:
        self.profile = profile
        self.platform_id = platform_id or f"{profile.name}-node-{next(_platform_ids)}"
        self.epc = EpcManager(profile.epc_bytes)
        attestation_key = SigningKey.generate()
        #: the platform's sealing-key derivation (the fused CPU root):
        #: enclaves on this machine seal state that only the same
        #: enclave identity on the same machine can recover
        self.sealing = SealingService()
        self._quoting_enclave = QuotingEnclave(profile.attestation, attestation_key)
        if attestation_service is not None:
            attestation_service.provision_platform(self.platform_id, attestation_key)
        self._enclaves: Dict[str, Enclave] = {}

    # -- enclave lifecycle -------------------------------------------------------

    def create_enclave(self, code: EnclaveCode, config: EnclaveBuildConfig) -> Enclave:
        """Launch ``code`` as a new enclave, committing its memory to the EPC."""
        # Enclaves larger than the EPC are allowed (the driver pages), which
        # is exactly the regime Figures 11b and 12c/d measure on SGX1.
        # Dynamic memory growth (EDMM) is an SGX2 capability.
        supports_edmm = self.profile.name == "sgx2"
        enclave = Enclave(
            code=code,
            config=config,
            platform_id=self.platform_id,
            on_destroy=self._release,
            on_expand=self._expand if supports_edmm else None,
        )
        self.epc.allocate(enclave.enclave_id, config.memory_bytes)
        self._enclaves[enclave.enclave_id] = enclave
        return enclave

    def _release(self, enclave: Enclave) -> None:
        self.epc.free(enclave.enclave_id)
        self._enclaves.pop(enclave.enclave_id, None)

    def _expand(self, enclave: Enclave, nbytes: int) -> None:
        self.epc.allocate(enclave.enclave_id, nbytes)

    @property
    def live_enclaves(self) -> int:
        return len(self._enclaves)

    # -- attestation (aesmd role) ----------------------------------------------------

    def quote(self, report: Report) -> Quote:
        """Generate a quote for a report produced on this platform."""
        if report.platform_id != self.platform_id:
            raise EnclaveError("report was produced on a different platform")
        return self._quoting_enclave.quote(report)

    @property
    def quotes_generated(self) -> int:
        return self._quoting_enclave.quotes_generated
