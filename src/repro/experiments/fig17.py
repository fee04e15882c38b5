"""Figures 17 & 18 (appendix): execution-time breakdown with / without SGX.

One cold request per (model, framework) on SGX2 hardware, once through
SeSeMI (Figure 17) and once through the untrusted runtime (Figure 18).
The paper's observation (:data:`ANCHORS`): the overhead of TEE
protection comes almost entirely from enclave initialisation and
attestation; the stages the two paths share (loading, runtime init,
inference) barely differ because the 64 GB EPC removes memory pressure.

Both breakdowns are read from the request span trees produced by a
virtual-time :class:`~repro.obs.tracer.Tracer` (see
:mod:`repro.obs.analysis`), not from the invocation results.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.stages import Stage
from repro.experiments.common import Anchor, format_table
from repro.experiments.fig8 import traced_cold_request
from repro.mlrt.zoo import FRAMEWORKS, PROFILES
from repro.obs import analysis

SHARED_STAGES = (
    Stage.MODEL_LOADING.value,
    Stage.RUNTIME_INIT.value,
    Stage.MODEL_INFERENCE.value,
)
SGX_ONLY_STAGES = (
    Stage.ENCLAVE_INIT.value,
    Stage.KEY_RETRIEVAL.value,
    Stage.MODEL_DECRYPT.value,
    Stage.REQUEST_DECRYPT.value,
    Stage.RESULT_ENCRYPT.value,
)


def _cold_stages(system: str, model_name: str, framework: str) -> Dict[str, float]:
    """One traced cold request; stage seconds from the span tree."""
    spans, _ = traced_cold_request(model_name, framework, system=system)
    (root,) = analysis.request_roots(spans)
    return analysis.stage_seconds(spans, root)


def run() -> dict:
    """Run one cold request per config with and without SGX."""
    rows: List[tuple] = []
    details = {}
    for framework in FRAMEWORKS:
        for model_name in PROFILES:
            sgx = _cold_stages("SeSeMI", model_name, framework)
            plain = _cold_stages("Untrusted", model_name, framework)
            label = f"{framework.upper()}-{model_name}"
            details[label] = {"sgx": sgx, "plain": plain}
            shared_sgx = sum(sgx.get(s, 0.0) for s in SHARED_STAGES)
            shared_plain = sum(plain.get(s, 0.0) for s in SHARED_STAGES)
            overhead = sum(sgx.get(s, 0.0) for s in SGX_ONLY_STAGES)
            rows.append((label, shared_sgx, shared_plain, overhead))
    return {"rows": rows, "details": details}


def _trust_share(result: dict) -> float:
    """Enclave init + key retrieval's lowest share of a config's SGX-only overhead."""
    return min(
        sum(result["details"][label]["sgx"].get(s.value, 0.0)
            for s in (Stage.ENCLAVE_INIT, Stage.KEY_RETRIEVAL)) / overhead
        for label, _, _, overhead in result["rows"]
    )


ANCHORS = (
    Anchor("shared stages w/ SGX / w/o SGX (config farthest from 1)", 1.0,
           lambda r: max((row[1] / row[2] for row in r["rows"]), key=lambda x: abs(x - 1)),
           "band", 0.95, 1.05, unit="x"),
    Anchor("enclave init + key share of the SGX-only overhead (lowest config)", "almost all",
           _trust_share, "threshold", lo=0.8, unit="%"),
)


def format_report(result: dict) -> str:
    """Render the experiment result as a paper-style text table."""
    headers = [
        "config",
        "shared stages w/ SGX (s)",
        "shared stages w/o SGX (s)",
        "SGX-only overhead (s)",
    ]
    lines = [
        "Figures 17/18 -- cold-request breakdown with vs without SGX (SGX2).",
        "",
        format_table(headers, result["rows"]),
    ]
    return "\n".join(lines)
