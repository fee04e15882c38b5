"""Figures 15 & 16 (appendix): enclave launch and attestation overhead.

Figure 15: average enclave initialisation time as a function of the
number of enclaves launched concurrently, for several enclave sizes, on
SGX2 and SGX1.  SGX1 grows faster because the combined launch set
exceeds its 128 MB EPC.

Figure 16: quote-generation latency under concurrent requests (quotes
serialise on the per-machine quoting enclave) on SGX2 (DCAP); EPID on
SGX1 is slower still because each verification pays the Intel
Attestation Service round trip.  The appendix's values are
:data:`ANCHORS`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.sgx.epc import MB
from repro.sgx.platform import SGX1, SGX2
from repro.experiments.common import Anchor, format_table

CONCURRENCY = (1, 2, 4, 8, 16)
SIZES_MB = (64, 128, 256)


def run() -> dict:
    """Evaluate the launch/attestation timing curves on both platforms."""
    init: Dict[str, List[tuple]] = {}
    quote: Dict[str, List[tuple]] = {}
    for hardware in (SGX2, SGX1):
        init_rows = []
        for size_mb in SIZES_MB:
            for n in CONCURRENCY:
                init_rows.append(
                    (size_mb, n, hardware.enclave_init_time(size_mb * MB, n))
                )
        init[hardware.name] = init_rows
        quote[hardware.name] = [
            (n, hardware.quote_time(n), hardware.attestation_round_time(n))
            for n in CONCURRENCY
        ]
    return {"init": init, "quote": quote}


def _init(result: dict, hardware: str, size_mb: int, n: int) -> float:
    return {(size, k): t for size, k, t in result["init"][hardware]}[(size_mb, n)]


def _quote(result: dict, hardware: str, n: int) -> float:
    return {k: t for k, t, _ in result["quote"][hardware]}[n]


ANCHORS = (
    Anchor("15: 16 concurrent 256 MB launches on SGX2, each", 4.06,
           lambda r: _init(r, "sgx2", 256, 16), "band", 3.857, 4.263, unit="s"),
    Anchor("15: launch slowdown at 16 vs 1 (128 MB), SGX2 < SGX1", "SGX1 overcommits EPC",
           lambda r: tuple(_init(r, hw, 128, 16) / _init(r, hw, 128, 1) for hw in ("sgx2", "sgx1")),
           "order", unit="x"),
    Anchor("16: DCAP quote, 1 enclave", 0.1, lambda r: _quote(r, "sgx2", 1), "threshold",
           hi=0.1, unit="s"),
    Anchor("16: DCAP quote, 16 concurrent", 1.0, lambda r: _quote(r, "sgx2", 16), "band",
           0.8, 1.2, unit="s"),
    Anchor("16: quote at 1 enclave, DCAP < EPID", "EPID slower",
           lambda r: (_quote(r, "sgx2", 1), _quote(r, "sgx1", 1)), "order", unit="s"),
)


def format_report(result: dict) -> str:
    """Render the experiment result as a paper-style text table."""
    lines = [
        "Figure 15 -- enclave initialisation overhead vs concurrent launches.",
        "",
    ]
    for hw, rows in result["init"].items():
        lines.append(f"{hw}:")
        lines.append(format_table(["size (MB)", "concurrent", "init (s)"], rows))
        lines.append("")
    lines += [
        "Figure 16 -- remote attestation overhead vs concurrent quotes.",
        "",
    ]
    for hw, rows in result["quote"].items():
        lines.append(f"{hw}:")
        lines.append(
            format_table(["concurrent", "quote (s)", "quote+verify (s)"], rows)
        )
        lines.append("")
    return "\n".join(lines)
