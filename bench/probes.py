"""Stand-alone per-layer timings, taken from outside by calling public functions.

Each probe times one layer's public call on inputs of the size the
workloads send, on a fixture built from the same workload classes the
end-to-end runs use (one shared environment: MobileNet in process and
behind HTTP, tinylm streaming).  Values are medians.  Calls that a
derived metric subtracts from each other are timed in the same loop,
one after the other, and the subtraction is done per iteration before
the median: machine speed drifts by tens of percent over seconds, and a
difference of medians taken seconds apart would measure the drift.
``scale`` shrinks every sample count for short runs.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

import numpy as np

from repro.core import wire
from repro.core.batching import BatchPolicy
from repro.core.semirt import SchedulerConfig, default_semirt_config
from repro.crypto.dh import DHKeyPair
from repro.crypto.gcm import AESGCM
from repro.crypto.keys import SymmetricKey
from repro.crypto.signature import SigningKey
from repro.mlrt.decoder import DecoderSession
from repro.mlrt.framework import get_framework
from repro.obs.tracer import Tracer
from repro.service import AdmissionController, ServiceConfig
from repro.sgx.attestation import AttestationService, QuotePolicy
from repro.sgx.enclave import EnclaveBuildConfig, EnclaveCode
from repro.sgx.platform import SGX2, SgxPlatform
from repro.sgx.ratls import RatlsPeer, perform_handshake

from spans import Recorder
from stats import p50
from workloads import NEW_TOKENS, STREAM_TCS, HotHttp, HotInproc, StreamDecode, World

perf = time.perf_counter
KIB = 1024
#: bytes a sealed blob adds to its plaintext (12-byte nonce + 16-byte tag)
SEAL_OVERHEAD = 28
UNITS = {"us": 1e6, "ms": 1e3}


class _ProbeEnclave(EnclaveCode):
    """An empty enclave: an attested RA-TLS peer for the handshake probe."""


def interleaved(calls: Dict[str, Callable[[], object]], n: int, warm: int = 2) -> Dict[str, np.ndarray]:
    """Time every call once per iteration, ``n`` iterations; seconds per call."""
    times = {name: [] for name in calls}
    for i in range(warm + n):
        for name, call in calls.items():
            started = perf()
            call()
            if i >= warm:
                times[name].append(perf() - started)
    return {name: np.asarray(samples) for name, samples in times.items()}


class Probes:
    """Runs every probe and collects ``name -> {value, unit, samples}``."""

    def __init__(self, seed: int, scale: float) -> None:
        self.scale = scale
        self.metrics: Dict[str, dict] = {}
        #: bases of derived metrics and cross-checks, for the trace file
        self.notes: Dict[str, dict] = {}
        self.world = World(seed)
        self.hot = HotInproc(seed, self.world)
        self.http = HotHttp(seed, self.world)
        self.stream = StreamDecode(seed, self.world)

    def n(self, count: int) -> int:
        """``count`` samples at full scale, never fewer than three."""
        return max(3, int(count * self.scale))

    def put(self, name: str, samples, unit: str, per: float = 1.0) -> None:
        """Record the median of ``samples`` (seconds for a time unit)."""
        self.count(name, p50(samples) * UNITS.get(unit, 1.0) / per, unit, len(samples))

    def count(self, name: str, value: float, unit: str = "count", samples: int = 1) -> None:
        """Record a value that is not a median of timings."""
        self.metrics[name] = {"value": float(value), "unit": unit, "samples": samples}

    def time(
        self, calls: Dict[str, Callable[[], object]], count: int, unit: str = "us", per: float = 1.0
    ) -> Dict[str, np.ndarray]:
        """Time ``calls`` interleaved and record each under its name."""
        times = interleaved(calls, self.n(count))
        for name, samples in times.items():
            if not name.startswith("_"):  # "_x" is only an operand of a derived metric
                self.put(name, samples, unit, per)
        return times

    def run(self) -> Dict[str, dict]:
        """Set the fixture up, run every probe, tear the fixture down."""
        try:
            self.crypto()
            self.hot.setup()
            self.inproc()
            self.launch()
            self.control_plane()
            self.stream.setup()
            self.streaming()
            self.http.setup()
            self.service()
        finally:
            self.world.close()
        return self.metrics

    # -- repro.crypto, repro.obs: no fixture needed -------------------------------

    def crypto(self) -> None:
        key = SymmetricKey.generate()
        cipher = AESGCM.derive(key)
        rng = np.random.default_rng(0)
        for label, size, count, per in (
            ("64B", 64, 300, 1), ("4KiB", 4 * KIB, 300, 1), ("per_KiB_64KiB", 64 * KIB, 20, 64)
        ):
            plain = rng.bytes(size)
            blob = cipher.seal(plain, aad=b"bench")
            self.time({
                f"crypto.seal_us_{label}": lambda: cipher.seal(plain, aad=b"bench"),
                f"crypto.open_us_{label}": lambda: cipher.unseal(blob, aad=b"bench"),
            }, count, per=per)
        self.time({"crypto.cipher_build_us": lambda: AESGCM(bytes(key))}, 30)

        pair, peer = DHKeyPair.generate(), DHKeyPair.generate()
        signer = SigningKey.generate()
        verifier = signer.verify_key
        signature = signer.sign(b"bench")
        self.time({
            "crypto.dh_keygen_ms": DHKeyPair.generate,
            "crypto.dh_shared_ms": lambda: pair.shared_secret(peer.public),
            "crypto.sign_ms": lambda: signer.sign(b"bench"),
            "crypto.verify_ms": lambda: verifier.verify(b"bench", signature),
        }, 7, "ms")

        tracer = Tracer()

        def span() -> None:
            with tracer.span("probe"):
                pass

        self.time({"obs.span_overhead_us": span}, 2000)

    # -- one hot in-process request, layer by layer --------------------------------

    def inproc(self) -> None:
        hot = self.hot
        session = hot.sessions[0]
        user, model_id, measurement = session.user, hot.model_id, session.measurement
        uid = user.principal_id
        host = session.semirt
        x = hot.inputs[1]
        enc = user.encrypt_request(model_id, measurement, x)
        response = host.infer(enc, uid, model_id)
        self.count("client.request_bytes", len(enc))
        self.count("client.response_bytes", len(response))

        message = {"model_id": model_id, "uid": uid, "enc_request": enc}
        frame = wire.dumps(message, codec=wire.BINARY)
        self.count("wire.frame_bytes", len(frame))
        self.time({
            "wire.dumps_us": lambda: wire.dumps(message, codec=wire.BINARY),
            "wire.loads_us": lambda: wire.loads(frame),
        }, 500)

        framework = get_framework("tvm")
        artifact = hot.handle.model.serialize()
        runtime = framework.create_runtime(framework.load_model(artifact))
        self.time({"mlrt.load_model_us": lambda: framework.load_model(artifact)}, 50)

        # the enclave's own two AEAD calls, at this request's and reply's sizes
        cipher = AESGCM.derive(SymmetricKey.generate())
        sealed_request = cipher.seal(bytes(len(enc) - SEAL_OVERHEAD), aad=b"bench")
        reply_plain = bytes(len(response) - SEAL_OVERHEAD)
        rec = Recorder()
        times = self.time({
            "client.encrypt_request_us": lambda: user.encrypt_request(model_id, measurement, x),
            "semirt.host_infer_us": lambda: host.infer(enc, uid, model_id),
            "client.decrypt_response_us": lambda: user.decrypt_response(model_id, measurement, response),
            "mlrt.execute_us": lambda: runtime.execute(x),
            "_session_infer": lambda: session.infer(x),
            "_open_request": lambda: cipher.unseal(sealed_request, aad=b"bench"),
            "_seal_reply": lambda: cipher.seal(reply_plain, aad=b"bench"),
            "_traced_op": lambda: hot.traced_op(0, rec),
        }, 300)
        self.put(
            "semirt.overhead_us",
            times["semirt.host_infer_us"] - times["_open_request"]
            - times["mlrt.execute_us"] - times["_seal_reply"], "us",
        )
        self.put(
            "gateway.session_overhead_us",
            times["_session_infer"] - times["client.encrypt_request_us"]
            - times["semirt.host_infer_us"] - times["client.decrypt_response_us"], "us",
        )
        # one traced op's span against the sum of its stand-alone layer rows
        span_us = rec.summary()["op"]["p50_us"]
        rows = {
            name: self.metrics[name]["value"]
            for name in (
                "client.encrypt_request_us", "semirt.host_infer_us",
                "client.decrypt_response_us", "gateway.session_overhead_us",
            )
        }
        self.notes["rows_check"] = {
            "op_span_p50_us": span_us,
            "rows_us": rows,
            "residual_share": (span_us - sum(rows.values())) / span_us,
        }

    def launch(self) -> None:
        env, hot = self.world.env, self.hot
        launches, colds = [], []
        for i in range(self.n(5)):
            started = perf()
            host = env.launch_semirt("tvm")
            launches.append(perf() - started)
            session = env.session("user-a", hot.model_id, semirt=host)
            started = perf()
            session.infer(hot.inputs[i % len(hot.inputs)])
            colds.append(perf() - started)
            host.destroy()
        self.put("semirt.launch_ms", launches, "ms")
        self.put("semirt.cold_infer_ms", colds, "ms")

    def control_plane(self) -> None:
        attestation = AttestationService()
        platform = SgxPlatform(SGX2, attestation_service=attestation)
        config = EnclaveBuildConfig(memory_bytes=1 << 20)
        client_enclave = platform.create_enclave(_ProbeEnclave(), config)
        server_enclave = platform.create_enclave(_ProbeEnclave(), config)

        def handshake() -> None:
            perform_handshake(
                RatlsPeer("semirt", enclave=client_enclave, quoter=platform.quote),
                RatlsPeer("keyservice", enclave=server_enclave, quoter=platform.quote),
                attestation,
                client_requires=QuotePolicy(expected_mrenclave=server_enclave.measurement),
                server_requires=QuotePolicy(expected_mrenclave=client_enclave.measurement),
            )

        self.time({"sgx.ratls_handshake_ms": handshake}, 5, "ms")

        env, handle = self.world.env, self.hot.handle
        connects, grants = [], []
        for i in range(self.n(5)):
            started = perf()
            user = env.connect_user(f"probe-user-{i}")
            connects.append(perf() - started)
            started = perf()
            handle.grant(user)
            grants.append(perf() - started)
        self.put("keyservice.connect_user_ms", connects, "ms")
        self.put("keyservice.grant_ms", grants, "ms")

    # -- streaming ----------------------------------------------------------------

    def streaming(self) -> None:
        stream = self.stream
        session = stream.session
        user, model_id, measurement = session.user, stream.model_id, session.measurement
        uid = user.principal_id
        host = session.semirt
        prompt = stream.prompts[1]
        enc = user.encrypt_stream_request(model_id, measurement, prompt, NEW_TOKENS)

        firsts, steps, frames = [], [], []
        for _ in range(self.n(100)):
            started = perf()
            arrivals, frames = [], []
            for frame in host.open_stream(enc, uid, model_id):
                arrivals.append(perf())
                frames.append(frame)
            firsts.append(arrivals[0] - started)
            steps.extend(np.diff(arrivals).tolist())
        self.put("semirt.stream_first_frame_us", firsts, "us")
        self.put("semirt.stream_step_us", steps, "us")

        self.count("client.frame_bytes", len(frames[0]))
        self.time({
            "client.decrypt_frame_us": lambda: user.decrypt_frame(model_id, measurement, frames[0]),
        }, 300)

        model = stream.handle.model
        prefills, decodes = [], []
        for _ in range(self.n(100)):
            decoder = DecoderSession(model)
            started = perf()
            decoder.prefill(prompt)
            prefills.append(perf() - started)
            for token in range(1, NEW_TOKENS):
                started = perf()
                decoder.step(token)
                decodes.append(perf() - started)
        self.put("mlrt.prefill_us", prefills, "us")
        self.put("mlrt.decode_step_us", decodes, "us")

        # two same-user streams merged into one running group per decode step
        grouped = self.world.env.launch_semirt(
            "tvm", config=default_semirt_config(tcs_count=STREAM_TCS),
            scheduler=SchedulerConfig(batch=BatchPolicy(max_batch=2)),
        )
        try:
            grouped.open_stream(enc, uid, model_id).result()  # cold start
            rates = []
            for _ in range(self.n(30)):
                started = perf()
                pair = [grouped.open_stream(enc, uid, model_id) for _ in range(2)]
                tokens = sum(len(handle.result()) for handle in pair)
                rates.append(tokens / (perf() - started))
        finally:
            grouped.destroy()
        self.put("semirt.stream_group2_tokens_per_s", rates, "1/s")

    # -- the HTTP tier ------------------------------------------------------------

    def service(self) -> None:
        http, inproc = self.http, self.hot.sessions[0]
        client = http.remotes[0].client
        session = http.sessions[0]
        user = session.user
        x = http.inputs[1]
        payload = {
            "model_id": http.model_id,
            "uid": user.principal_id,
            "enc_request": user.encrypt_request(http.model_id, session.measurement, x),
        }
        admission = AdmissionController(ServiceConfig())
        self.time({"service.admit_release_us": lambda: admission.admit("tenant")()}, 2000)
        self.time({"service.healthz_roundtrip_us": lambda: client.request("GET", "/v1/healthz")}, 300)
        times = self.time({
            "service.presealed_infer_us": lambda: client.request(
                "POST", "/v1/infer", payload, codec=wire.BINARY
            ),
            "_remote_infer": lambda: session.infer(x),
            "_session_infer": lambda: inproc.infer(x),
        }, 200)
        self.put("service.http_overhead_us", times["_remote_infer"] - times["_session_infer"], "us")

        single = p50(times["_remote_infer"])
        ops = http.burst(3.0 * self.scale)
        both = p50([op.outs[0] - op.t0 for op in ops if op.outs])
        self.count("service.two_client_slowdown", both / single, "ratio", len(ops))
        self.notes["two_client"] = {
            "two_client_p50_ms": both * 1e3, "single_client_p50_ms": single * 1e3,
        }
