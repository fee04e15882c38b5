"""The in-enclave streaming plane: ECALLs, continuous batching, edges.

These tests drive the functional twin's stream plane end-to-end: the
``EC_MODEL_INF_STREAM`` / ``EC_STREAM_STEP`` / ``EC_STREAM_CLOSE``
surface, per-ticket stream contexts (KV caches in the enclave heap),
the continuous batcher (members join and leave a *running* group
between decode steps), the :class:`InferenceStream` cancellation
contract, and the leader-crash fault site (``semirt:batch``).
"""

import io
import time

import pytest

from repro.core.batching import BatchPolicy
from repro.core.deployment import SeSeMIEnvironment, SessionStream
from repro.core.semirt import SchedulerConfig
from repro.core.semirt_enclave import (
    MAX_STREAM_TOKENS,
    IsolationSettings,
    default_semirt_config,
)
from repro.errors import (
    EnclaveError,
    FaultInjected,
    InvocationError,
    RequestCancelled,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.mlrt.decoder import DecoderSession
from repro.mlrt.zoo import build_tinylm
from repro.service.client import HttpStream, RemoteStream
from repro.service.protocol import frame_record
from tests.conftest import held_ecalls

MODEL_ID = "lm-model"


def _launch(
    model,
    *,
    users=("user",),
    policy=BatchPolicy(batch_window_s=0.05, max_batch=4),
    tcs_count=4,
    injector=None,
):
    """One host serving the tiny decoder-only transformer."""
    env = SeSeMIEnvironment(injector=injector)
    config = default_semirt_config(tcs_count=tcs_count)
    handle = env.deploy(model, MODEL_ID, owner="owner", config=config)
    for name in users:
        handle.grant(name)
    scheduler = SchedulerConfig(queue_depth=64, batch=policy)
    host = env.launch_semirt("tvm", config=config, scheduler=scheduler)
    return env, host


def _uid(env, name):
    return env.user(name).principal_id


def _seal(env, host, name, prompt, max_new):
    return env.user(name).encrypt_stream_request(
        MODEL_ID, host.measurement, prompt, max_new
    )


def _tokens(env, host, name, frames):
    """Decrypt sealed frames and enforce the index ordering client-side."""
    return [
        env.user(name).decrypt_frame(
            MODEL_ID, host.measurement, frame, expected_index=index
        )["token"]
        for index, frame in enumerate(frames)
    ]


def _wait_for(condition, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.01)
    return condition()


# -- correctness: streamed tokens == the reference decode ---------------------------


def test_solo_stream_matches_reference_decode():
    model = build_tinylm(seed=7)
    env, host = _launch(model, policy=None)
    prompt = [3, 1, 4]
    want = DecoderSession(model).generate(prompt, 12)
    stream = host.open_stream(
        _seal(env, host, "user", prompt, 12), _uid(env, "user"), MODEL_ID
    )
    got = _tokens(env, host, "user", stream.result(timeout_s=30))
    assert got == want
    assert stream.done() and not stream.cancelled()
    assert _wait_for(lambda: host.code.open_streams == 0)
    host.destroy()


def test_the_worker_yields_the_cpu_after_every_pushed_frame(monkeypatch):
    """A consumer blocked on a frame must not wait for the OS to preempt
    a worker that keeps decoding with the GIL held: the worker yields
    once per frame, right after pushing it (time-to-first-token was
    bimodal on one core without this)."""
    from repro.core import semirt

    model = build_tinylm(seed=7)
    env, host = _launch(model, policy=None)
    events = []
    push = semirt.InferenceStream.push
    monkeypatch.setattr(
        semirt.InferenceStream, "push",
        lambda self, item: (events.append("push"), push(self, item))[1],
    )
    monkeypatch.setattr(semirt, "_yield_cpu", lambda: events.append("yield"))
    stream = host.open_stream(
        _seal(env, host, "user", [3, 1, 4], 12), _uid(env, "user"), MODEL_ID
    )
    assert len(stream.result(timeout_s=30)) == 12
    assert events == ["push", "yield"] * 12
    host.destroy()


def test_concurrent_streams_share_step_ecalls_and_stay_correct():
    model = build_tinylm(seed=7)
    env, host = _launch(model)
    prompts = [[i + 1, 2, 3] for i in range(4)]
    refs = [DecoderSession(model).generate(p, 10) for p in prompts]

    def open_stream(prompt):
        return host.open_stream(
            _seal(env, host, "user", prompt, 10), _uid(env, "user"), MODEL_ID
        )

    with held_ecalls("EC_MODEL_INF_STREAM") as gate:
        # the leader's prefill is held: the other three join its group
        streams = [open_stream(prompts[0])]
        gate.wait_entered(1)
        streams += [open_stream(p) for p in prompts[1:]]
        assert _wait_for(lambda: len(host._stream_group.joiners) == 3)
        gate.release()
        got = [
            _tokens(env, host, "user", s.result(timeout_s=30)) for s in streams
        ]
    assert got == refs  # grouping never changes any stream's tokens
    assert any(size > 1 for _, _, size in host.code.stream_log), (
        "four concurrent same-pair streams never shared a step ECALL"
    )
    assert _wait_for(lambda: host.code.open_streams == 0)
    host.destroy()


def test_stream_joins_a_running_group_mid_decode():
    model = build_tinylm(seed=7)
    env, host = _launch(model)
    with held_ecalls("EC_STREAM_STEP") as gate:
        first = host.open_stream(
            _seal(env, host, "user", [1, 2, 3], 24), _uid(env, "user"), MODEL_ID
        )
        # the first stream decodes alone, held inside its first step...
        gate.wait_entered(1)
        # ...then joins: the running group must absorb the newcomer
        # without restarting -- subsequent steps advance both at once
        second = host.open_stream(
            _seal(env, host, "user", [5, 2, 3], 10), _uid(env, "user"), MODEL_ID
        )
        assert _wait_for(lambda: len(host._stream_group.joiners) == 1)
        gate.release()
    a = _tokens(env, host, "user", first.result(timeout_s=30))
    b = _tokens(env, host, "user", second.result(timeout_s=30))
    assert a == DecoderSession(model).generate([1, 2, 3], 24)
    assert b == DecoderSession(model).generate([5, 2, 3], 10)
    sizes = [n for _, _, n in host.code.stream_log]
    assert 1 in sizes and 2 in sizes, f"no mid-decode join observed: {sizes}"
    host.destroy()


# -- cancellation -------------------------------------------------------------------


def test_cancel_mid_decode_releases_the_stream_context():
    model = build_tinylm(seed=7)
    env, host = _launch(model, policy=None)
    with held_ecalls("EC_STREAM_STEP") as gate:
        stream = host.open_stream(
            _seal(env, host, "user", [1, 2, 3], MAX_STREAM_TOKENS),
            _uid(env, "user"),
            MODEL_ID,
        )
        frames = iter(stream)
        next(frames)  # the stream is live: its KV cache pins enclave heap
        assert host.code.open_streams == 1
        assert stream.cancel() is True
        gate.release()
        with pytest.raises(RequestCancelled):
            stream.result(timeout_s=30)
    assert stream.done() and stream.cancelled()
    assert stream.cancel() is False  # the outcome is sealed
    # the enclave context -- KV cache included -- must be gone promptly,
    # not at interpreter exit: an abandoned decode never pins the heap
    assert _wait_for(lambda: host.code.open_streams == 0)
    # at most the one step already under way when the cancel landed
    assert len(host.code.stream_log) <= 1, (
        "the enclave kept decoding after the cancel"
    )
    host.destroy()


def test_cancelled_member_leaves_the_group_others_finish():
    model = build_tinylm(seed=7)
    env, host = _launch(model)
    with held_ecalls("EC_STREAM_STEP") as gate:
        keeper = host.open_stream(
            _seal(env, host, "user", [1, 2, 3], 16), _uid(env, "user"), MODEL_ID
        )
        gate.wait_entered(1)  # the keeper's solo step
        victim = host.open_stream(
            _seal(env, host, "user", [4, 2, 3], 64), _uid(env, "user"), MODEL_ID
        )
        assert _wait_for(lambda: len(host._stream_group.joiners) == 1)
        gate.release(1)
        gate.wait_entered(2)  # the first step of both: the victim is a member
        assert host.code.stream_log[-1][2] == 2
        assert victim.cancel() is True
        gate.release()
        with pytest.raises(RequestCancelled):
            victim.result(timeout_s=30)
    got = _tokens(env, host, "user", keeper.result(timeout_s=30))
    assert got == DecoderSession(model).generate([1, 2, 3], 16)
    assert _wait_for(lambda: host.code.open_streams == 0)
    host.destroy()


# -- the leader-crash fault site ----------------------------------------------------


class _BatchSiteCrasher(FaultInjector):
    """Crashes only at the ``semirt:batch`` site, never at open."""

    def __init__(self):
        super().__init__(FaultPlan(rates={FaultKind.ENCLAVE_CRASH: 1.0}))
        self.arm()

    def crash_enclave(self, site):
        if site != "semirt:batch":
            return False
        return super().crash_enclave(site)


def test_leader_crash_mid_stream_leaves_no_follower_hung():
    model = build_tinylm(seed=7)
    injector = _BatchSiteCrasher()
    env, host = _launch(model, injector=injector)
    streams = []
    for i in range(4):
        try:
            streams.append(
                host.open_stream(
                    _seal(env, host, "user", [i + 1, 2, 3], 16),
                    _uid(env, "user"),
                    MODEL_ID,
                )
            )
        except EnclaveError:
            break  # the leader already crashed and took the host down
    assert streams, "the crash fired before any stream was admitted"
    # every member and joiner must resolve promptly -- a follower
    # blocked on a dead leader is the bug this test exists for
    for stream in streams:
        with pytest.raises((FaultInjected, EnclaveError)):
            stream.result(timeout_s=30)
    assert all(stream.done() for stream in streams)
    assert not host.enclave.alive
    assert any(record.site == "semirt:batch" for record in injector.records)


# -- in-enclave refusals ------------------------------------------------------------


def test_sequential_build_refuses_co_executing_stream_steps():
    """A sequential build promises no co-execution: the check precedes
    ticket lookup, so even fabricated tickets are refused as a pair."""
    model = build_tinylm(seed=7)
    env = SeSeMIEnvironment()
    isolation = IsolationSettings.strong()
    config = default_semirt_config(tcs_count=1)
    env.deploy(
        model, MODEL_ID, owner="owner", config=config, isolation=isolation
    ).grant("user")
    host = env.launch_semirt("tvm", config=config, isolation=isolation)
    with pytest.raises(InvocationError, match="sequential"):
        host.enclave.ecall("EC_STREAM_STEP", [101, 102])
    with pytest.raises(InvocationError, match="empty stream step"):
        host.enclave.ecall("EC_STREAM_STEP", [])
    host.destroy()


def test_stream_step_refuses_mixed_user_tickets():
    """One step ECALL advances one ``<uid, model>`` pair, never a mix."""
    model = build_tinylm(seed=7)
    env, host = _launch(model, users=("user-a", "user-b"), policy=None)
    tickets = []
    for name in ("user-a", "user-b"):
        ticket, _, done = host.enclave.ecall(
            "EC_MODEL_INF_STREAM",
            _seal(env, host, name, [1, 2, 3], 8),
            _uid(env, name),
            MODEL_ID,
        )
        assert not done
        tickets.append(ticket)
    with pytest.raises(InvocationError, match="single <uid, model_id>"):
        host.enclave.ecall("EC_STREAM_STEP", tickets)
    with pytest.raises(EnclaveError, match="no stream open"):
        host.enclave.ecall("EC_STREAM_STEP", [999])
    for ticket in tickets:
        host.enclave.ecall("EC_STREAM_CLOSE", ticket)
    assert host.code.open_streams == 0
    host.destroy()


def test_stream_contexts_are_capacity_bounded():
    """Open streams pin enclave heap, so their count is bounded by the
    TCS plan; the overflow fails fast instead of thrashing the EPC."""
    model = build_tinylm(seed=7)
    env, host = _launch(model, policy=None, tcs_count=1)
    ticket, _, _ = host.enclave.ecall(
        "EC_MODEL_INF_STREAM",
        _seal(env, host, "user", [1, 2, 3], 8),
        _uid(env, "user"),
        MODEL_ID,
    )
    with pytest.raises(EnclaveError, match="stream contexts are in use"):
        host.enclave.ecall(
            "EC_MODEL_INF_STREAM",
            _seal(env, host, "user", [4, 2, 3], 8),
            _uid(env, "user"),
            MODEL_ID,
        )
    host.enclave.ecall("EC_STREAM_CLOSE", ticket)
    host.enclave.ecall("EC_STREAM_CLOSE", ticket)  # idempotent
    assert host.code.open_streams == 0
    host.destroy()


def test_stream_aad_separates_request_kinds():
    """A one-shot sealed request replayed at the stream ECALL fails AEAD:
    the stream surface has its own AAD, so kind confusion is caught in
    the enclave, not by parsing luck."""
    import numpy as np

    model = build_tinylm(seed=7)
    env, host = _launch(model, policy=None)
    x = np.zeros(model.input_spec.shape, dtype=np.float32)
    one_shot = env.user("user").encrypt_request(MODEL_ID, host.measurement, x)
    with pytest.raises(InvocationError, match="does not authenticate"):
        host.enclave.ecall(
            "EC_MODEL_INF_STREAM", one_shot, _uid(env, "user"), MODEL_ID
        )
    host.destroy()


def test_token_budget_is_bounded():
    model = build_tinylm(seed=7)
    env, host = _launch(model, policy=None)
    for bad in (0, MAX_STREAM_TOKENS + 1):
        stream = host.open_stream(
            _seal(env, host, "user", [1, 2, 3], bad),
            _uid(env, "user"),
            MODEL_ID,
        )
        with pytest.raises(InvocationError, match="max_new_tokens"):
            stream.result(timeout_s=30)
    assert host.code.open_streams == 0
    host.destroy()


def test_a_malformed_prompt_is_a_bad_request_not_a_raw_numpy_error():
    """An authenticated user's prompt that is not a whole number of float32
    ids, or holds a non-finite one, is refused as ``InvocationError``
    before a decoder exists -- it used to leave the ECALL as ``ValueError``."""
    from repro.core import wire
    from repro.core.semirt_enclave import STREAM_AAD

    model = build_tinylm(seed=7)
    env, host = _launch(model, policy=None)
    cipher = env.user("user")._request_cipher(MODEL_ID, host.measurement)
    torn = cipher.seal(
        wire.dumps({"prompt": bytes(5), "max_new_tokens": 4}, codec=wire.BINARY),
        aad=STREAM_AAD + MODEL_ID.encode(),
    )
    for sealed, message in [
        (torn, "whole number of float32"),
        (_seal(env, host, "user", [1.0, float("nan")], 4), "finite"),
        (_seal(env, host, "user", [1.0, float("inf")], 4), "finite"),
    ]:
        stream = host.open_stream(sealed, _uid(env, "user"), MODEL_ID)
        with pytest.raises(InvocationError, match=message):
            stream.result(timeout_s=30)
    assert host.code.open_streams == 0
    good = host.open_stream(_seal(env, host, "user", [1, 2], 3), _uid(env, "user"), MODEL_ID)
    assert len(good.result(timeout_s=30)) == 3
    host.destroy()


# -- the session tier ---------------------------------------------------------------


def test_session_stream_yields_decrypted_tokens_incrementally():
    model = build_tinylm(seed=7)
    env = SeSeMIEnvironment()
    config = default_semirt_config(tcs_count=2)
    env.deploy(model, MODEL_ID, owner="owner", config=config).grant("user")
    host = env.launch_semirt("tvm", config=config)
    want = DecoderSession(model).generate([2, 7, 1], 9)
    with env.session("user", MODEL_ID, config=config, semirt=host) as session:
        stream = session.stream([2, 7, 1], 9)
        assert list(stream) == want  # iterating decrypts frame by frame
        assert stream.result(timeout_s=30) == want  # the Future view
        assert stream.done()
    host.destroy()


class _Relay:
    """An untrusted hop between enclave and consumer: hands over whatever
    sealed frames it likes, as both transports present them."""

    sock = None

    def __init__(self, frames):
        self._frames = frames
        self._body = io.BytesIO(b"".join(frame_record(frame) for frame in frames))

    def __iter__(self):  # the in-process gateway stream
        return iter(self._frames)

    def result(self, timeout_s=None):
        return list(self._frames)

    def read(self, n=-1):  # the chunked HTTP response body
        return self._body.read(n)

    def close(self):
        pass


@pytest.mark.parametrize("consumer", ["session", "http"])
@pytest.mark.parametrize("tamper", ["reorder", "replay", "drop", "truncate", "empty"])
def test_every_consumer_detects_a_tampered_frame_sequence(consumer, tamper):
    """Frames authenticate individually, so only what is sealed *into*
    them can catch a relay that reorders, replays, drops or truncates:
    the index, and the ``done`` marker of the last frame -- and both
    consumers run the one :class:`~repro.core.client.TokenStream` check."""
    model = build_tinylm(seed=7)
    env, host = _launch(model, policy=None, tcs_count=1)
    frames = host.open_stream(
        _seal(env, host, "user", [2, 7, 1], 4), _uid(env, "user"), MODEL_ID
    ).result(timeout_s=30)
    want = _tokens(env, host, "user", frames)
    # the tampered sequence, how many tokens precede the tamper point,
    # and what the consumer says about it
    tampered, intact, match = {
        "reorder": ([frames[0], frames[2], frames[1], frames[3]], 1, "out of order"),
        "replay": ([frames[0], frames[1], frames[1], frames[2]], 2, "out of order"),
        "drop": ([frames[0], frames[1], frames[3]], 2, "out of order"),
        "truncate": (frames[:2], 2, "truncated"),
        "empty": ([], 0, "truncated"),
    }[tamper]
    session = env.session("user", MODEL_ID, semirt=host, config=host.enclave.config)

    def consume():
        relay = _Relay(tampered)
        if consumer == "session":
            return SessionStream(session, relay)
        return RemoteStream(session, HttpStream(relay, relay))

    delivered = []
    with pytest.raises(InvocationError, match=match):
        for token in consume():
            delivered.append(token)
    # everything before the tamper point arrived intact, nothing after
    assert delivered == want[:intact]
    with pytest.raises(InvocationError, match=match):
        consume().result(timeout_s=30)
    host.destroy()
