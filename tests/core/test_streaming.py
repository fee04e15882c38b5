"""The in-enclave streaming plane: ECALLs, continuous batching, edges.

These tests drive the functional twin's stream plane end-to-end: the
``EC_MODEL_INF_STREAM`` / ``EC_STREAM_STEP`` / ``EC_STREAM_CLOSE``
surface, per-ticket stream contexts (KV caches in the enclave heap),
the continuous batcher (members join and leave a *running* group
between decode steps), the :class:`InferenceStream` cancellation
contract, and the leader-crash fault site (``semirt:batch``).
"""

import io
import threading
import time

import numpy as np
import pytest

from repro.core.batching import BatchPolicy
from repro.core.client import SessionStream
from repro.core.deployment import SeSeMIEnvironment
from repro.core.semirt import SchedulerConfig
from repro.core.semirt_enclave import (
    MAX_STREAM_TOKENS,
    IsolationSettings,
    default_semirt_config,
)
from repro.crypto.gcm import frame_nonce
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
from repro.service.client import HttpStream
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
    """Decrypt sealed frames one by one and check each sealed index."""
    payloads = [
        env.user(name).decrypt_frame(MODEL_ID, host.measurement, frame)
        for frame in frames
    ]
    assert [p["index"] for p in payloads] == list(range(len(frames)))
    return [p["token"] for p in payloads]


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
    with pytest.raises(InvocationError, match="tickets': length 0 is below 1"):
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


def test_a_budget_the_stream_header_cannot_carry_is_refused_typed():
    """``max_new_tokens`` crosses as an int32 header; a value outside it is
    the same bad request the enclave's bound check makes of 0 or 1025,
    not a raw ``struct.error`` from the client."""
    model = build_tinylm(seed=7)
    env, host = _launch(model, policy=None)
    user = env.user("user")
    for bad in (-(2**31) - 1, 2**31):
        with pytest.raises(InvocationError, match="max_new_tokens"):
            user.encrypt_stream_request(MODEL_ID, host.measurement, [1, 2], bad)
    host.destroy()


def test_a_malformed_prompt_is_a_bad_request_not_a_raw_numpy_error():
    """An authenticated user's prompt that is not a whole number of float32
    ids, or holds a non-finite one, is refused as ``InvocationError``
    before a decoder exists -- it used to leave the ECALL as ``ValueError``."""
    from repro.core.semirt_enclave import STREAM_AAD, STREAM_HEAD

    model = build_tinylm(seed=7)
    env, host = _launch(model, policy=None)
    cipher = env.user("user")._request_cipher(MODEL_ID, host.measurement)
    torn = cipher.seal(STREAM_HEAD.pack(4) + bytes(5), aad=STREAM_AAD + MODEL_ID.encode())
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


def test_a_prompt_past_the_bound_is_refused_before_a_decoder(monkeypatch):
    """A prompt runs whole inside one ECALL, so its length is bounded like
    the token budget: past MAX_STREAM_TOKENS the enclave refuses it as a
    bad request before taking a decoder, and neither the stream context
    nor the gateway slot stays held.  The bound itself is served."""
    from repro.core import semirt_enclave

    model = build_tinylm(seed=7)
    env = SeSeMIEnvironment()
    config = default_semirt_config(tcs_count=2)
    env.deploy(model, MODEL_ID, owner="owner", config=config).grant("user")
    host = env.launch_semirt("tvm", config=config)
    taken = []
    monkeypatch.setattr(
        semirt_enclave, "DecoderSession",
        lambda m: taken.append(m) or DecoderSession(m),
    )
    longest = [(7 * i) % 32 for i in range(MAX_STREAM_TOKENS)]
    with env.session("user", MODEL_ID, config=config, semirt=host) as session:
        stream = session.stream(longest + [1], 4)
        with pytest.raises(InvocationError, match="prompt must hold between 1 and 1024"):
            stream.result(timeout_s=30)
        assert taken == []
        assert _wait_for(lambda: host.code.open_streams == 0)
        assert _wait_for(lambda: session._gateway.in_flight == 0)
        tokens = session.stream(longest, 3).result(timeout_s=60)
        assert len(taken) == 1
    assert tokens == DecoderSession(model).generate(longest, 3)
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
@pytest.mark.parametrize(
    "tamper", ["reorder", "replay", "drop", "truncate", "empty", "short", "blank"]
)
def test_every_consumer_detects_a_tampered_frame_sequence(consumer, tamper):
    """Frames authenticate individually, so only what is sealed *into*
    them can catch a relay that reorders, replays, drops or truncates:
    the index, and the ``done`` marker of the last frame -- and the
    in-process frames and an :class:`HttpStream`'s both run through the
    one :class:`~repro.core.client.SessionStream` check.
    A frame too short to hold a nonce and tag is a forgery, not a raw
    parsing error."""
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
        "short": ([frames[0][:5]] + frames[1:], 0, "does not authenticate"),
        "blank": ([b""] + frames[1:], 0, "does not authenticate"),
    }[tamper]
    session = env.session("user", MODEL_ID, semirt=host, config=host.enclave.config)

    def consume():
        relay = _Relay(tampered)
        inner = relay if consumer == "session" else HttpStream(relay, relay)
        return SessionStream(session, inner, max_new_tokens=4)

    delivered = []
    with pytest.raises(InvocationError, match=match):
        for token in consume():
            delivered.append(token)
    # everything before the tamper point arrived intact, nothing after
    assert delivered == want[:intact]
    with pytest.raises(InvocationError, match=match):
        consume().result(timeout_s=30)
    host.destroy()


def _consume(env, host, consumer, frames, max_new):
    """Every token ``frames`` yields through one of the two consumers,
    and the error that stopped it (``None`` if none did)."""
    session = env.session("user", MODEL_ID, semirt=host, config=host.enclave.config)
    relay = _Relay(frames)
    inner = relay if consumer == "session" else HttpStream(relay, relay)
    stream = SessionStream(session, inner, max_new_tokens=max_new)
    delivered = []
    try:
        for token in stream:
            delivered.append(token)
    except InvocationError as exc:
        return delivered, exc
    return delivered, None


@pytest.mark.parametrize("consumer", ["session", "http"])
def test_a_frame_spliced_in_from_another_live_stream_is_refused(consumer):
    """Two streams of one user and model, both live: frame 1 of B carries
    index 1 and authenticates under the same K_R, but not under A's stream
    nonce, so splicing it into A is refused instead of delivering B's token
    as A's."""
    model = build_tinylm(seed=7)
    env, host = _launch(model, policy=None, tcs_count=2)
    with held_ecalls("EC_STREAM_STEP") as gate:
        a = host.open_stream(_seal(env, host, "user", [2, 7, 1], 4), _uid(env, "user"), MODEL_ID)
        b = host.open_stream(_seal(env, host, "user", [30, 4, 2], 4), _uid(env, "user"), MODEL_ID)
        gate.wait_entered(2)  # both contexts are open in the enclave at once
        gate.release()
    a, b = a.result(timeout_s=30), b.result(timeout_s=30)
    want_a, want_b = _tokens(env, host, "user", a), _tokens(env, host, "user", b)
    assert want_a[1] != want_b[1]  # the splice would change what A says
    delivered, error = _consume(env, host, consumer, [a[0], b[1], a[2], a[3]], 4)
    assert error is not None and "out of order" in str(error)
    assert delivered == want_a[:1]
    host.destroy()


def test_a_replayed_stream_request_seals_under_fresh_nonces():
    """The enclave draws the stream nonce N per open: opening one sealed
    request twice (as the benchmark's probe does) gives frames sealed
    under ``N xor i`` for two different N, so the two nonce sets are
    disjoint and the replay's frames do not fit the first open's stream."""
    model = build_tinylm(seed=7)
    env, host = _launch(model, policy=None, tcs_count=1)
    enc = _seal(env, host, "user", [2, 7, 1], 6)
    opens = [host.open_stream(enc, _uid(env, "user"), MODEL_ID).result(timeout_s=30)
             for _ in range(2)]
    nonce_sets = []
    for frames in opens:
        base = frames[0][:12]
        assert [f[:12] for f in frames] == [frame_nonce(base, i) for i in range(6)]
        nonce_sets.append({f[:12] for f in frames})
    assert not nonce_sets[0] & nonce_sets[1]
    first, replay = opens
    assert _tokens(env, host, "user", first) == _tokens(env, host, "user", replay)
    for consumer in ("session", "http"):
        delivered, error = _consume(env, host, consumer, first[:3] + replay[3:], 6)
        assert error is not None and "out of order" in str(error)
        assert len(delivered) == 3
    host.destroy()


def test_no_frame_nonce_repeats_across_streams_or_one_shot_seals():
    """Many streams under one request key, plus one-shot seals under it:
    every nonce the key ever sealed under is distinct."""
    model = build_tinylm(seed=7)
    env, host = _launch(model, policy=None, tcs_count=1)
    user = env.user("user")
    nonces = []
    for n in range(40):
        enc = _seal(env, host, "user", [n % 32, 3], 1 + n % 9)
        nonces.append(enc[:12])  # the client's one-shot seal of the request
        frames = host.open_stream(enc, _uid(env, "user"), MODEL_ID).result(timeout_s=30)
        assert all(len(frame) == 12 + 9 + 16 for frame in frames)
        nonces.extend(frame[:12] for frame in frames)
    for _ in range(20):
        nonces.append(user.encrypt_request(MODEL_ID, host.measurement, np.zeros(3))[:12])
    assert len(nonces) == 40 + sum(1 + n % 9 for n in range(40)) + 20
    assert len(set(nonces)) == len(nonces)
    host.destroy()


def test_a_warm_stream_runs_one_aes_batch_per_party(monkeypatch):
    """The enclave draws its first keystream run inside the batch that opens
    the stream request, the client its run when it opens frame 0; after
    that a frame costs GHASH and an XOR on either side, no AES batch."""
    from repro.crypto.aes import AES

    model = build_tinylm(seed=7)
    env, host = _launch(model, policy=None, tcs_count=1)
    config = host.enclave.config
    batches = []
    real = AES.encrypt_blocks

    def counted(self, blocks):
        batches.append(len(blocks))
        return real(self, blocks)

    with env.session("user", MODEL_ID, config=config, semirt=host) as session:
        session.stream([2, 7, 1], 12).result(timeout_s=30)  # the cold start
        monkeypatch.setattr(AES, "encrypt_blocks", counted)
        tokens = session.stream([2, 7, 1], 12).result(timeout_s=30)
        monkeypatch.undo()
    assert tokens == DecoderSession(model).generate([2, 7, 1], 12)
    # the enclave's open of the 2-block request (a 16-byte body: the header
    # and three ids, one CTR block plus the tag mask) plus its fixed first
    # run of FIRST_RUN_FRAMES = 16 frames x 2 blocks; the client's run of
    # 12 frames plus the 2-block slot its next request seal takes (this
    # request's seal drew the last one)
    assert batches == [2 + 32, 24 + 2], batches
    host.destroy()


def test_a_long_stream_draws_a_bounded_run_before_its_first_token(monkeypatch):
    """What either party draws before the first token is capped at
    FIRST_RUN_FRAMES frames, however long the stream: the rest of a
    1024-token stream's keystreams come in runs of RUN_FRAMES later."""
    from repro.crypto.aes import AES

    model = build_tinylm(seed=7)
    env, host = _launch(model, policy=None, tcs_count=1)
    config = host.enclave.config
    batches = []
    real = AES.encrypt_blocks

    def counted(self, blocks):
        batches.append(len(blocks))
        return real(self, blocks)

    with env.session("user", MODEL_ID, config=config, semirt=host) as session:
        session.stream([2, 7, 1], 12).result(timeout_s=30)  # the cold start
        monkeypatch.setattr(AES, "encrypt_blocks", counted)
        tokens = session.stream([2, 7, 1], MAX_STREAM_TOKENS).result(timeout_s=60)
        monkeypatch.undo()
    assert len(tokens) == MAX_STREAM_TOKENS
    # per party: 16 frames first (with the request open / the reservoir
    # refill), then seven runs of 128 frames and one of the last 112
    assert batches[0] == 2 + 32
    assert sorted(batches) == sorted([2 + 32, 32 + 2] + [256] * 14 + [224] * 2), batches
    host.destroy()


def test_a_stream_is_in_one_step_at_a_time(monkeypatch):
    """Frame ``i`` is sealed under ``N xor i``, so two steps of one stream
    racing on two TCSs would seal two frames under one nonce.  The enclave
    claims a stream for the whole step: a second step while the first is
    inside the decoder, or a step naming the ticket twice, is refused, and
    the frames the stream does seal carry distinct nonces."""
    model = build_tinylm(seed=7)
    env, host = _launch(model, policy=None, tcs_count=2)
    ticket, first, done = host.enclave.ecall(
        "EC_MODEL_INF_STREAM", _seal(env, host, "user", [2, 7, 1], 4),
        _uid(env, "user"), MODEL_ID,
    )
    inside, release = threading.Event(), threading.Event()
    real_step = DecoderSession.step

    def held_step(decoder, token):
        if not inside.is_set():  # hold the first step inside the decoder
            inside.set()
            release.wait(timeout=10)
        return real_step(decoder, token)

    monkeypatch.setattr(DecoderSession, "step", held_step)
    steps = []
    worker = threading.Thread(
        target=lambda: steps.append(host.enclave.ecall("EC_STREAM_STEP", [ticket]))
    )
    worker.start()
    assert inside.wait(timeout=10)
    try:
        with pytest.raises(InvocationError, match="one step at a time"):
            host.enclave.ecall("EC_STREAM_STEP", [ticket])
    finally:
        release.set()
        worker.join(timeout=10)
    monkeypatch.undo()
    with pytest.raises(InvocationError, match="one step at a time"):
        host.enclave.ecall("EC_STREAM_STEP", [ticket, ticket])
    frames = [first, steps[0][0][0]]
    done = steps[0][0][1]
    while not done:
        [(frame, done)] = host.enclave.ecall("EC_STREAM_STEP", [ticket])
        frames.append(frame)
    base = frames[0][:12]
    assert [f[:12] for f in frames] == [frame_nonce(base, i) for i in range(4)]
    assert _tokens(env, host, "user", frames) == DecoderSession(model).generate([2, 7, 1], 4)
    assert host.code.open_streams == 0
    host.destroy()
