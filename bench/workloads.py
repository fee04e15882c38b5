"""The four closed-loop workloads, driven against the live functional twin.

Every workload builds its own :class:`World` (one deployed
``SeSeMIEnvironment``), generates its inputs from the run's seed,
computes plaintext references during set-up, and then issues operations
through the public session API only.  Everything runs on the shipped
defaults: binary wire codec, derived session ciphers, the 32-entry key
memo, no batch policy, no pacing, the environment's default tracer.
``op`` is the end-to-end operation; ``traced_op`` performs the same work
through the public steps the composite call is made of, each under a
benchmark-side span.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core import wire
from repro.core.deployment import SeSeMIEnvironment
from repro.core.semirt import default_semirt_config
from repro.mlrt.decoder import DecoderSession
from repro.mlrt.zoo import build_mobilenet, build_tinylm
from repro.routing import FnPool
from repro.service import InferenceService, RemoteEnvironment, ServiceConfig

import calibrate
from stats import Op, Window

perf = time.perf_counter

#: seconds of closed loop between two calibration points
WINDOW_S = 1.0

IMAGE_POOL = 64
PROMPT_POOL = 32
PROMPT_TOKENS = 3
NEW_TOKENS = 12
VOCAB = 32
HTTP_CLIENTS = 2
STREAM_TCS = 2


class World:
    """One deployed environment plus whatever the workload launched on it."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.env = SeSeMIEnvironment()
        self._closers: List[Callable[[], None]] = []

    def on_close(self, closer: Callable[[], None]) -> None:
        """Register a tear-down step; steps run in reverse order."""
        self._closers.append(closer)

    def close(self) -> None:
        """Tear down hosts, gateways and services this world started."""
        while self._closers:
            self._closers.pop()()

    # -- deployments -------------------------------------------------------------

    def deploy_images(self, model_id: str, users: Sequence[str], tcs_count: int = 1):
        """Deploy MobileNet, grant ``users``; returns ``(handle, config)``."""
        config = default_semirt_config(tcs_count=tcs_count)
        handle = self.env.deploy(build_mobilenet(), model_id, owner="owner", config=config)
        for user in users:
            handle.grant(user)
        return handle, config

    def image_inputs(self, handle):
        """A seeded pool of inputs and their plaintext reference outputs."""
        shape = handle.model.input_spec.shape
        inputs = [
            self.rng.standard_normal(shape).astype(np.float32)
            for _ in range(IMAGE_POOL)
        ]
        references = [handle.model.run_reference(x).ravel() for x in inputs]
        return inputs, references

    def serve_http(self, handle, config):
        """Start the HTTP tier over a one-endpoint gateway; returns the service."""
        pool = FnPool(
            name="bench", models=(handle.model_id,), memory_budget=0, num_endpoints=1
        )
        gateway = self.env.gateway(pool, config=config)
        service = InferenceService(self.env, gateway, [handle], config=ServiceConfig())
        service.start_background()
        self.on_close(gateway.close)
        self.on_close(service.close)
        return service

    def remote(self, service, model_id: str, user: str) -> RemoteEnvironment:
        """A remote client with its own connection and one granted user."""
        remote = RemoteEnvironment(service.base_url, self.env.attestation)
        self.on_close(remote.close)
        remote.model(model_id).grant(remote.connect_user(user))
        return remote

    def deploy_decoder(self, model_id: str, user: str):
        """Deploy tinylm on a warm two-TCS host; returns ``(handle, session)``."""
        config = default_semirt_config(tcs_count=STREAM_TCS)
        handle = self.env.deploy(build_tinylm(vocab=VOCAB), model_id, owner="owner", config=config)
        handle.grant(user)
        host = self.env.launch_semirt("tvm", config=config)
        self.on_close(host.destroy)
        session = self.env.session(user, model_id, config=config, semirt=host)
        return handle, session

    def prompts(self, handle):
        """A seeded pool of prompts and their reference continuations."""
        prompts = [
            [int(t) for t in self.rng.integers(1, VOCAB, size=PROMPT_TOKENS)]
            for _ in range(PROMPT_POOL)
        ]
        references = [
            DecoderSession(handle.model).generate(p, NEW_TOKENS) for p in prompts
        ]
        return prompts, references


def _infer_op(session, x: np.ndarray, caller: int, key: int) -> Op:
    """One timed ``session.infer`` (a ``UserSession`` or a ``RemoteSession``)."""
    op = Op(caller, key, perf())
    try:
        op.output = session.infer(x)
        op.outs.append(perf())
    except Exception as exc:  # a 429, transport or serving error: counted, the loop goes on
        op.error = repr(exc)
    op.t1 = perf()
    return op


class Workload:
    """Set-up, one operation, its traced twin, and the output check."""

    name = ""

    def __init__(self, seed: int, world: Optional[World] = None) -> None:
        #: the probes put several workloads on one shared world
        self.world = world if world is not None else World(seed)
        #: operations issued so far; the next one's index into the input pools
        self._issued = 0

    def setup(self) -> None:
        """Deploy, connect, grant, compute references and warm up."""
        raise NotImplementedError

    def op(self, i: int, caller: int = 0) -> Op:
        """One end-to-end operation through the composite public call."""
        raise NotImplementedError

    def traced_op(self, i: int, rec) -> Op:
        """The same work through its public steps, each under a span."""
        raise NotImplementedError

    def correct(self, op: Op) -> bool:
        """Whether ``op``'s output equals its plaintext reference."""
        return op.output is not None and np.allclose(
            op.output, self.references[op.key], atol=1e-5
        )

    def run_serial(self, seconds: float, op=None, limit: Optional[int] = None) -> List[Op]:
        """One caller on this thread, one op at a time, until ``seconds`` pass."""
        op = op or self.op
        ops, deadline = [], perf() + seconds
        while perf() < deadline and (limit is None or len(ops) < limit):
            ops.append(op(self._issued + len(ops)))
        self._issued += len(ops)
        return ops

    def burst(self, seconds: float) -> List[Op]:
        """The closed loop with this workload's caller count for ``seconds``."""
        return self.run_serial(seconds)

    def run(self, seconds: float) -> List[Window]:
        """The end-to-end run: bursts of the closed loop between calibration points.

        Each window carries the machine's slowdown over the calibration
        points on both its sides; no operation is in flight during one.
        """
        windows, deadline = [], perf() + seconds
        before = calibrate.samples()
        while perf() < deadline:
            started = perf()
            ops = self.burst(min(WINDOW_S, deadline - started))
            after = calibrate.samples()
            windows.append(Window(ops, started, calibrate.slowdown(before + after)))
            before = after
        return windows

    def close(self) -> None:
        """Tear down everything :meth:`setup` started."""
        self.world.close()


class HotInproc(Workload):
    """One caller, two granted users alternating on one warm in-process host."""

    name = "hot_inproc"
    model_id = "mobilenet"

    def setup(self) -> None:
        world = self.world
        self.handle, _ = world.deploy_images(self.model_id, ("user-a", "user-b"))
        self.inputs, self.references = world.image_inputs(self.handle)
        host = world.env.launch_semirt("tvm")
        world.on_close(host.destroy)
        self.sessions = [
            world.env.session(user, self.model_id, semirt=host)
            for user in ("user-a", "user-b")
        ]
        for session in self.sessions:  # cold start and key fetches, off the clock
            session.infer(self.inputs[0])

    def op(self, i: int, caller: int = 0) -> Op:
        key = i % IMAGE_POOL
        return _infer_op(self.sessions[i % 2], self.inputs[key], caller, key)

    def traced_op(self, i: int, rec) -> Op:
        key = i % IMAGE_POOL
        session = self.sessions[i % 2]
        user = session.user
        op = Op(0, key, perf())
        with rec.span("op"):
            with rec.span("client.encrypt_request"):
                enc = user.encrypt_request(self.model_id, session.measurement, self.inputs[key])
            with rec.span("gateway.dispatch"):
                reply = session.gateway.dispatch(enc, user.principal_id, self.model_id)
            with rec.span("client.decrypt_response"):
                op.output = user.decrypt_response(
                    self.model_id, session.measurement, reply.output
                )
        op.t1 = perf()
        op.outs.append(op.t1)
        return op


class HotHttp(Workload):
    """Two client threads, each with its own ``RemoteSession`` and connection."""

    name = "hot_http"
    model_id = "mobilenet-http"

    def setup(self) -> None:
        world = self.world
        handle, config = world.deploy_images(self.model_id, (), tcs_count=2)
        self.inputs, self.references = world.image_inputs(handle)
        self.service = world.serve_http(handle, config)
        self.remotes = [
            world.remote(self.service, self.model_id, f"user-{c}")
            for c in range(HTTP_CLIENTS)
        ]
        self.sessions = [
            remote.session(f"user-{c}", self.model_id)
            for c, remote in enumerate(self.remotes)
        ]
        # Each client thread opens its connection and warms the path
        # itself, then parks at the gate; burst() opens the gate for all
        # of them together and meets them there again when they are done.
        self._gate = threading.Barrier(HTTP_CLIENTS + 1)
        self._deadline: Optional[float] = None  # None tells the clients to leave
        self._results: List[List[Op]] = [[] for _ in range(HTTP_CLIENTS)]
        self._threads = [
            threading.Thread(target=self._client, args=(c,), daemon=True)
            for c in range(HTTP_CLIENTS)
        ]
        for thread in self._threads:
            thread.start()
        world.on_close(self._stop_clients)
        self._gate.wait(60)

    def _client(self, caller: int) -> None:
        for _ in range(2):
            self.sessions[caller].infer(self.inputs[0])
        issued = 0
        self._gate.wait()  # warm
        while True:
            self._gate.wait()  # a burst starts, or the workload closes
            if self._deadline is None:
                break
            ops = self._results[caller]
            while perf() < self._deadline:
                ops.append(self.op(issued, caller))
                issued += 1
            self._gate.wait()  # this burst is done
        self.remotes[caller].close()  # this thread's keep-alive connection

    def op(self, i: int, caller: int = 0) -> Op:
        key = (i * HTTP_CLIENTS + caller) % IMAGE_POOL
        return _infer_op(self.sessions[caller], self.inputs[key], caller, key)

    def burst(self, seconds: float) -> List[Op]:
        """Open the gate, let every client loop for ``seconds``, meet them again."""
        self._results = [[] for _ in range(HTTP_CLIENTS)]
        self._deadline = perf() + seconds
        self._gate.wait()
        self._gate.wait()
        return [op for ops in self._results for op in ops]

    def _stop_clients(self) -> None:
        self._deadline = None
        try:
            self._gate.wait(60)
        except threading.BrokenBarrierError:
            pass  # a client died in set-up; the break has released the others
        for thread in self._threads:
            thread.join()

    def traced_op(self, i: int, rec) -> Op:
        key = i % IMAGE_POOL
        session = self.sessions[0]
        user = session.user
        op = Op(0, key, perf())
        with rec.span("op"):
            with rec.span("client.encrypt_request"):
                enc = user.encrypt_request(self.model_id, session.measurement, self.inputs[key])
            with rec.span("service.request"):
                status, reply, _ = self.remotes[0].client.request(
                    "POST", "/v1/infer",
                    {"model_id": self.model_id, "uid": user.principal_id, "enc_request": enc},
                    codec=wire.BINARY,
                )
            if status >= 400:
                op.error = f"http {status}"
            else:
                with rec.span("client.decrypt_response"):
                    op.output = user.decrypt_response(
                        self.model_id, session.measurement, reply["enc_response"]
                    )
        op.t1 = perf()
        if op.error is None:
            op.outs.append(op.t1)
        return op


class ColdStart(Workload):
    """Serial launch, first request through the fresh enclave, destroy."""

    name = "cold_start"
    model_id = "mobilenet"

    def setup(self) -> None:
        world = self.world
        handle, _ = world.deploy_images(self.model_id, ("user-a",))
        self.inputs, self.references = world.image_inputs(handle)
        self.op(0)  # first launch on this platform, off the clock

    def op(self, i: int, caller: int = 0) -> Op:
        env = self.world.env
        key = i % IMAGE_POOL
        op = Op(caller, key, perf())
        host = None
        try:
            host = env.launch_semirt("tvm")
            session = env.session("user-a", self.model_id, semirt=host)
            op.output = session.infer(self.inputs[key])
            op.outs.append(perf())
        except Exception as exc:
            op.error = repr(exc)
        finally:
            if host is not None:
                host.destroy()
        op.t1 = perf()
        return op

    def traced_op(self, i: int, rec) -> Op:
        env = self.world.env
        key = i % IMAGE_POOL
        op = Op(0, key, perf())
        with rec.span("op"):
            with rec.span("semirt.launch"):
                host = env.launch_semirt("tvm")
            try:
                with rec.span("deployment.session"):
                    session = env.session("user-a", self.model_id, semirt=host)
                user = session.user
                with rec.span("client.encrypt_request"):
                    enc = user.encrypt_request(
                        self.model_id, session.measurement, self.inputs[key]
                    )
                with rec.span("gateway.dispatch.cold"):
                    reply = session.gateway.dispatch(enc, user.principal_id, self.model_id)
                with rec.span("client.decrypt_response"):
                    op.output = user.decrypt_response(
                        self.model_id, session.measurement, reply.output
                    )
                op.outs.append(perf())
            finally:
                with rec.span("semirt.destroy"):
                    host.destroy()
        op.t1 = perf()
        return op


class StreamDecode(Workload):
    """One token stream at a time, consumed on the calling thread."""

    name = "stream_decode"
    model_id = "tinylm"

    def setup(self) -> None:
        self.handle, self.session = self.world.deploy_decoder(self.model_id, "user-a")
        self.prompts, self.references = self.world.prompts(self.handle)
        self.session.stream(self.prompts[0], 1).result()  # cold start, off the clock

    def op(self, i: int, caller: int = 0) -> Op:
        key = i % PROMPT_POOL
        op = Op(caller, key, perf(), output=[])
        try:
            for token in self.session.stream(self.prompts[key], NEW_TOKENS):
                op.outs.append(perf())
                op.output.append(token)
        except Exception as exc:
            op.error = repr(exc)
        op.t1 = perf()
        return op

    def traced_op(self, i: int, rec) -> Op:
        key = i % PROMPT_POOL
        session = self.session
        user = session.user
        op = Op(0, key, perf(), output=[])
        with rec.span("op"):
            with rec.span("client.encrypt_stream_request"):
                enc = user.encrypt_stream_request(
                    self.model_id, session.measurement, self.prompts[key], NEW_TOKENS
                )
            with rec.span("gateway.open_stream"):
                frames = iter(session.gateway.open_stream(enc, user.principal_id, self.model_id))
            while True:
                with rec.span("semirt.next_frame"):
                    frame = next(frames, None)
                if frame is None:
                    break
                with rec.span("client.decrypt_frame"):
                    payload = user.decrypt_frame(self.model_id, session.measurement, frame)
                op.outs.append(perf())
                op.output.append(payload["token"])
        op.t1 = perf()
        return op

    def correct(self, op: Op) -> bool:
        return op.output == self.references[op.key]


WORKLOADS = {w.name: w for w in (HotInproc, HotHttp, ColdStart, StreamDecode)}
