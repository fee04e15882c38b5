"""DecoderSession: incremental decoding == full-context execution."""

import hashlib

import numpy as np
import pytest

from repro.errors import ModelError
from repro.mlrt.decoder import DecoderSession, greedy, streamable
from repro.mlrt.zoo import build_mobilenet, build_tinylm


def test_tinylm_is_streamable_cnns_are_not():
    assert streamable(build_tinylm())
    assert not streamable(build_mobilenet())


def test_non_streamable_model_refused():
    with pytest.raises(ModelError, match="not streamable"):
        DecoderSession(build_mobilenet())


def test_streamability_is_decided_once_per_model_with_its_plan(monkeypatch):
    """Opening a stream reads the verdict the plan keeps; it walks no node
    (the first stream binds, and parks its steps for the next ones)."""
    cnn, lm = build_mobilenet(), build_tinylm()
    assert cnn.plan().unstreamable == ["conv2d", "dense", "depthwise_conv2d", "global_avg_pool"]
    assert lm.plan().unstreamable == []
    DecoderSession(lm).step(1)
    monkeypatch.setattr(type(lm.plan()), "nodes", property(lambda plan: pytest.fail("walked")))
    for _ in range(3):
        DecoderSession(lm).step(1)
        assert streamable(lm) and not streamable(cnn)


def test_prefill_matches_full_context_reference():
    # Feed exactly ctx tokens: the reference runs the whole window at
    # once, and so does prefill -- one pass of the plan bound at (1, ctx).
    # Same logits row, bit for bit.
    ctx = 8
    model = build_tinylm(ctx=ctx, seed=3)
    tokens = [(i * 5) % 32 for i in range(ctx)]
    full = model.run_reference(
        np.array([tokens], dtype=np.float32)
    )
    session = DecoderSession(model)
    incremental = session.prefill(tokens)
    assert session.position == ctx
    assert np.array_equal(incremental, full)


def _stepwise(model, prompt):
    """A session fed ``prompt`` one step per token, and its last logits."""
    session = DecoderSession(model)
    for token in prompt:
        logits = session.step(token)
    return session, logits


def test_a_prompt_past_ctx_is_one_pass_then_steps():
    # the first ctx tokens go through one pass, the tail one step each;
    # the logits agree with a full-context run at every length, as the
    # chain of steps always has
    model = build_tinylm(ctx=8, seed=11)
    tokens = [int(t) for t in np.random.default_rng(11).integers(0, 32, 20)]
    for length in range(9, len(tokens) + 1):
        session = DecoderSession(model)
        got = session.prefill(tokens[:length])
        assert session.position == length
        want = model.run_reference(np.array([tokens[:length]], dtype=np.float32))
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


def test_prefill_leaves_the_state_a_stepwise_prompt_leaves():
    model = build_tinylm(ctx=16, seed=2)
    for length in (2, 3, 15, 16, 17, 33):
        prompt = [(3 * i + 1) % 32 for i in range(length)]
        session = DecoderSession(model)
        session.prefill(prompt)
        stepped, _ = _stepwise(model, prompt)
        assert session.position == stepped.position == length
        assert session.kv_bytes == stepped.kv_bytes
        assert [a.shape for kv in session._kv for a in kv] == [
            a.shape for kv in stepped._kv for a in kv
        ]


def test_generate_after_a_one_pass_prefill_matches_the_stepwise_path():
    model = build_tinylm(seed=5)
    for prompt in ([3, 1, 4], [2, 7, 1, 8, 2, 8], [9] * 16, list(range(20)), [30, 0]):
        session, logits = _stepwise(model, prompt)
        token = greedy(logits)
        stepped = [token]
        while len(stepped) < 12:
            token = greedy(session.step(token))
            stepped.append(token)
        assert DecoderSession(model).generate(prompt, 12) == stepped, prompt


def test_a_one_token_prompt_or_a_started_session_steps():
    model = build_tinylm(seed=9)
    # nothing to pass in one token: it is one step, bit for bit
    _, one = _stepwise(model, [6])
    assert np.array_equal(DecoderSession(model).prefill([6]), one)
    # a session past position 0 folds a second prompt in step by step
    session = DecoderSession(model)
    session.prefill([4, 4, 8])
    later = session.prefill([1, 5])
    _, want = _stepwise(model, [4, 4, 8, 1, 5])
    assert session.position == 5
    np.testing.assert_allclose(later, want, rtol=1e-5, atol=1e-6)


def test_step_logits_match_reference_at_every_prefix():
    # Positional encodings are a function of absolute position and the
    # causal mask is implicit in the KV cache, so *every* prefix of the
    # incremental decode must agree with a fresh full-context run.
    model = build_tinylm(ctx=8, seed=11)
    tokens = [1, 7, 2, 9, 4, 1, 3, 6]
    session = DecoderSession(model)
    for length in range(1, len(tokens) + 1):
        got = session.step(tokens[length - 1])
        want = model.run_reference(
            np.array([tokens[:length]], dtype=np.float32)
        )
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


def test_generate_is_deterministic_and_greedy():
    model = build_tinylm(seed=5)
    prompt = [3, 1, 4]
    a = DecoderSession(model).generate(prompt, 16)
    b = DecoderSession(model).generate(prompt, 16)
    assert a == b
    assert len(a) == 16
    assert all(0 <= t < 32 for t in a)
    # the first generated token is the argmax over the prefilled prompt
    assert a[0] == greedy(DecoderSession(model).prefill(prompt))


def test_kv_cache_grows_one_row_per_step():
    model = build_tinylm(blocks=2, seed=7)
    session = DecoderSession(model)
    session.step(1)
    per_row = sum(a.nbytes // a.shape[2] for kv in session._kv for a in kv)
    assert per_row == 2 * 2 * 16 * 4  # two blocks, k and v, dim 16, float32
    # one row per step, into buffers that start at 16 rows and double when
    # full: kv_bytes is the capacity held, so 16 rows pin 16, the 17th 32
    capacities = []
    for token in range(2, 34):
        session.step(token % 32)
        capacities.append(session.kv_bytes // per_row)
    assert capacities == [16] * 15 + [32] * 16 + [64]
    assert session.position == 33


def test_empty_prompt_and_bad_budget_refused():
    model = build_tinylm()
    with pytest.raises(ModelError, match="empty prompt"):
        DecoderSession(model).prefill([])
    with pytest.raises(ModelError, match="at least 1"):
        DecoderSession(model).generate([1], 0)


def test_logits_over_pinned_prompts_are_the_concatenating_caches():
    """Writing KV rows in place changes no bit of any logits row: the
    digest is the one the caches that grew by concatenation produced."""
    digest = hashlib.sha256()
    for seed in range(4):
        session = DecoderSession(build_tinylm(seed=seed))
        for token in np.random.default_rng(seed).integers(0, 32, 40):  # past ctx
            digest.update(session.step(int(token)).tobytes())
    assert digest.hexdigest() == (
        "f79bba842c5a96307fe67598683bcfb49ce66dd936f791bb95282d27a7ce5452"
    )


def test_kv_rows_are_written_in_place_until_the_buffer_is_full():
    session = DecoderSession(build_tinylm(seed=1))
    session.step(0)
    held = [array for kv in session._kv for array in kv]
    for token in range(1, 16):  # rows 2..16 of a 16-row buffer: no reallocation
        session.step(token)
    assert all(a is b for a, b in zip(held, (x for kv in session._kv for x in kv)))
    session.step(16)  # the 17th row doubles every buffer
    assert all(array.shape[2] == 32 for kv in session._kv for array in kv)
