"""Wall-clock benchmark for the per-request hot-path overhead work.

PR 5 amortised the ECALL with micro-batching; this experiment measures
what a single hot request still paid afterwards -- wire codec, AEAD
cipher construction, and the per-request key validation round trip --
and what the three coordinated caches recover:

- the **binary wire codec** (``wire.BINARY``) moves ciphertext as raw
  segments instead of hex-doubled JSON strings;
- the **session key cache** (:meth:`~repro.crypto.gcm.AESGCM.derive`)
  reuses the expanded AES key schedule + GHASH tables across a hot
  session instead of rebuilding them per call;
- the **SeMIRT key memo** (``SchedulerConfig.key_cache_entries``)
  skips the KeyService round trip for every memoised ``(uid, model)``
  pair, not just the most recent one.

The workload is the multi-tenant hot path: **two users alternating on
one shared host**.  The legacy lane reproduces the seed behaviour --
canonical-JSON request frames, a fresh :class:`AESGCM` per client call,
and a single-entry key cache (the paper's single-pair semantics), which
thrashes on every user switch.  The fast lane is the shipped default.
Both lanes serve the same model, the same inputs, and real crypto end
to end; ``speedup`` is legacy p50 over fast p50 and ``run()`` gates it
at :data:`SPEEDUP_GATE` (``repro run hotpath`` exits 1 below it).

Micro-sections decompose the win: codec encode+decode p50 (JSON vs
binary on a representative sealed-request payload) and seal p50 (fresh
construction vs derived session cipher).
"""

from __future__ import annotations

import time
from typing import Callable, List

import numpy as np

from repro.core import wire
from repro.core.semirt import SchedulerConfig
from repro.core.semirt_enclave import REQUEST_AAD, RESPONSE_AAD
from repro.crypto.gcm import AESGCM
from repro.crypto.keys import SymmetricKey
from repro.experiments.common import format_gates, live_host
from repro.mlrt.zoo import build_mobilenet

MODEL_ID = "hotpath-model"

#: floor for the end-to-end single-request p50 improvement
SPEEDUP_GATE = 1.4


def _p50(samples: List[float]) -> float:
    return float(np.percentile(np.asarray(samples), 50))


def _legacy_encrypt(user, model_id: str, measurement, x: np.ndarray) -> bytes:
    """The seed's client request path: JSON frame, fresh cipher."""
    payload = wire.dumps({"input": x.astype(np.float32).tobytes()})
    key = user.request_key(model_id, measurement)
    return AESGCM(bytes(key)).seal(payload, aad=REQUEST_AAD + model_id.encode())


def _legacy_decrypt(user, model_id: str, measurement, blob: bytes) -> np.ndarray:
    """The seed's client response path: fresh cipher per call."""
    key = user.request_key(model_id, measurement)
    raw = AESGCM(bytes(key)).open(blob, aad=RESPONSE_AAD + model_id.encode())
    return np.frombuffer(wire.loads(raw)["output"], dtype=np.float32)


def _lane(
    scheduler: SchedulerConfig,
    requests: int,
    model_seed: int,
    serve: Callable,
) -> dict:
    """Serve one alternating-user burst on a fresh host; p50/p95 per request."""
    model = build_mobilenet(seed=model_seed)
    x = np.zeros(model.input_spec.shape, dtype=np.float32)
    with live_host(
        model, MODEL_ID, scheduler, users=("user-a", "user-b")
    ) as live:
        host = live.host
        users = [live.env.user("user-a"), live.env.user("user-b")]
        # Warm-up off the clock: cold start, model load, first key fetches.
        for user in users:
            serve(user, host, x)
        latencies: List[float] = []
        for index in range(requests):
            user = users[index % 2]
            started = time.perf_counter()
            serve(user, host, x)
            latencies.append(time.perf_counter() - started)
    return {
        "requests": requests,
        "p50_ms": _p50(latencies) * 1e3,
        "p95_ms": float(np.percentile(np.asarray(latencies), 95)) * 1e3,
        "total_s": float(np.sum(latencies)),
    }


def _fast_serve(user, host, x: np.ndarray) -> np.ndarray:
    enc = user.encrypt_request(MODEL_ID, host.measurement, x)
    out = host.infer(enc, user.principal_id, MODEL_ID)
    return user.decrypt_response(MODEL_ID, host.measurement, out)


def _legacy_serve(user, host, x: np.ndarray) -> np.ndarray:
    enc = _legacy_encrypt(user, MODEL_ID, host.measurement, x)
    out = host.infer(enc, user.principal_id, MODEL_ID)
    return _legacy_decrypt(user, MODEL_ID, host.measurement, out)


def _codec_micro(payload_bytes: int, rounds: int) -> dict:
    """Encode+decode p50 for one sealed-ciphertext-sized payload."""
    blob = bytes(range(256)) * (payload_bytes // 256 + 1)
    message = {"enc_request": blob[:payload_bytes], "model_id": MODEL_ID}
    result = {}
    for name, codec in (("json", wire.JSON), ("binary", wire.BINARY)):
        samples = []
        for _ in range(rounds):
            started = time.perf_counter()
            frame = codec.dumps(message)
            wire.loads(frame)
            samples.append(time.perf_counter() - started)
        result[name] = {
            "p50_us": _p50(samples) * 1e6,
            "frame_bytes": len(codec.dumps(message)),
        }
    result["speedup"] = result["json"]["p50_us"] / result["binary"]["p50_us"]
    return result


def _crypto_micro(payload_bytes: int, rounds: int) -> dict:
    """Seal p50: fresh AESGCM per call vs the derived session cipher."""
    key = SymmetricKey.generate()
    plaintext = b"\x5a" * payload_bytes
    fresh = []
    for _ in range(rounds):
        started = time.perf_counter()
        AESGCM(bytes(key)).seal(plaintext, aad=b"bench")
        fresh.append(time.perf_counter() - started)
    cipher = AESGCM.derive(key)  # first derivation pays the build
    derived = []
    for _ in range(rounds):
        started = time.perf_counter()
        cipher.seal(plaintext, aad=b"bench")
        derived.append(time.perf_counter() - started)
    return {
        "fresh_p50_us": _p50(fresh) * 1e6,
        "derived_p50_us": _p50(derived) * 1e6,
        "speedup": _p50(fresh) / _p50(derived),
    }


def run(
    requests: int = 60,
    model_seed: int = 7,
    micro_payload: int = 4096,
    micro_rounds: int = 200,
) -> dict:
    """End-to-end legacy vs fast lanes plus the codec/crypto micro-sections.

    Returns the two lane rows, ``speedup`` (legacy p50 over fast p50,
    gated at :data:`SPEEDUP_GATE`), and the micro decompositions.  The
    fast lane runs the shipped default scheduler; the legacy lane the
    seed's single-entry key cache.
    """
    legacy = _lane(
        SchedulerConfig(key_cache_entries=1), requests, model_seed,
        _legacy_serve,
    )
    fast = _lane(SchedulerConfig(), requests, model_seed, _fast_serve)
    speedup = legacy["p50_ms"] / fast["p50_ms"]
    gates = {"hot_path_faster": speedup >= SPEEDUP_GATE}
    return {
        "requests": requests,
        "legacy": legacy,
        "fast": fast,
        "speedup": speedup,
        "gate": SPEEDUP_GATE,
        "codec_micro": _codec_micro(micro_payload, micro_rounds),
        "crypto_micro": _crypto_micro(micro_payload, micro_rounds),
        "gates": gates,
        "pass": all(gates.values()),
    }


def format_report(result: dict) -> str:
    """Render the lane table, the speedup line, and the micro-sections."""
    lines = [
        f"hot-path per-request overhead, {result['requests']} requests, "
        "two users alternating on one host",
        f"{'lane':>8} {'p50':>9} {'p95':>9} {'total':>8}",
    ]
    for name in ("legacy", "fast"):
        row = result[name]
        lines.append(
            f"{name:>8} {row['p50_ms']:>7.2f}ms {row['p95_ms']:>7.2f}ms "
            f"{row['total_s']:>7.2f}s"
        )
    lines.append(
        f"single-request p50 speedup: {result['speedup']:.2f}x "
        f"(gate >= {result['gate']:.1f}x)"
    )
    codec = result["codec_micro"]
    lines.append(
        f"codec micro ({codec['json']['frame_bytes']}B json vs "
        f"{codec['binary']['frame_bytes']}B binary frame): "
        f"{codec['json']['p50_us']:.0f}us -> {codec['binary']['p50_us']:.0f}us "
        f"({codec['speedup']:.1f}x)"
    )
    crypto = result["crypto_micro"]
    lines.append(
        f"crypto micro (seal): fresh {crypto['fresh_p50_us']:.0f}us -> "
        f"derived {crypto['derived_p50_us']:.0f}us ({crypto['speedup']:.1f}x)"
    )
    lines.append(format_gates(result))
    return "\n".join(lines)
