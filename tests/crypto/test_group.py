"""``repro.crypto.group``: Jacobi membership, the two comb tables for ``G``,
the two draws (full-length for Schnorr, 256-bit for ephemeral DH keys), and
the guarantee that the expressions they replaced stay replaced."""

import inspect
import pathlib
import random
import re
import secrets
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import group
from repro.crypto.dh import DHKeyPair
from repro.crypto.signature import SigningKey

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
P, Q, G = group.P, group.Q, group.G


@settings(max_examples=15, deadline=None)
@given(x=st.integers(min_value=1, max_value=Q - 1))
def test_powers_of_g_are_members_and_their_negations_are_not(x):
    element = pow(G, x, P)
    assert group.is_group_element(element) is (element != 1)
    # -1 is a non-residue (P = 3 mod 4), so negation leaves the subgroup
    assert group.is_group_element(P - element) is False


def test_jacobi_symbol_small_cases():
    # (a/7): the residues mod 7 are 1, 2, 4; (a/15) multiplies (a/3)(a/5)
    assert [group._jacobi(a, 7) for a in range(7)] == [0, 1, 1, -1, 1, -1, -1]
    assert [group._jacobi(a, 15) for a in (1, 2, 3, 4, 7, 8, 11, 14)] == [1, 1, 0, 1, -1, 1, -1, -1]


SHORT = 1 << group.SHORT_SCALAR_BITS
EDGES = [0, 1, SHORT >> 1, SHORT - 1, SHORT, SHORT + 1, Q - 1, Q, Q + 1]


@pytest.mark.parametrize("x", [*EDGES, *(-x for x in EDGES[1:]), Q + SHORT - 1, Q + SHORT, P])
def test_g_pow_is_pow_at_the_seam_between_the_two_tables(x):
    assert group.g_pow(x) == pow(G, x, P)


def test_g_pow_is_pow_for_200_random_exponents_of_each_length():
    for draw in (lambda: secrets.randbits(256), lambda: secrets.randbelow(Q)):
        for _ in range(200):
            x = draw()
            assert group.g_pow(x) == pow(G, x, P), hex(x)


@settings(max_examples=60, deadline=None)
@given(x=st.one_of(
    st.integers(min_value=0, max_value=SHORT - 1),
    st.integers(min_value=SHORT, max_value=Q - 1),
    st.integers(min_value=-(1 << 2100), max_value=1 << 2100),
))
@example(x=SHORT - 1)
@example(x=SHORT)
def test_g_pow_is_pow_for_any_integer(x):
    assert group.g_pow(x) == pow(G, x, P)


def test_an_exponent_picks_its_table_after_reduction_mod_q(monkeypatch):
    """``Q + 5`` is a short exponent and ``2^256`` is not."""
    spans = []
    real = group._comb_table
    monkeypatch.setattr(group, "_comb_table", lambda span: spans.append(span) or real(span))
    for x in (5, SHORT - 1, Q + 5, -Q + 5, SHORT, Q - 1, -1):
        group.g_pow(x)
    assert spans == [32, 32, 32, 32, 256, 256, 256]


# -- the two draws -----------------------------------------------------------------


def test_short_draw_is_uniform_over_1_to_2_256(monkeypatch):
    """1,000 samples from a pinned source, and the source's two extremes."""
    source, bounds = random.Random(22), set()

    def randbelow(bound):
        bounds.add(bound)
        return source.randrange(bound)

    monkeypatch.setattr(group.secrets, "randbelow", randbelow)
    samples = [group.random_short_scalar() for _ in range(1000)]
    assert all(1 <= x < SHORT for x in samples) and len(set(samples)) == 1000
    assert bounds == {SHORT - 1}
    assert max(samples).bit_length() == 256 and min(samples).bit_length() > 240
    monkeypatch.setattr(group.secrets, "randbelow", lambda bound: 0)
    assert group.random_short_scalar() == 1  # never 0
    monkeypatch.setattr(group.secrets, "randbelow", lambda bound: bound - 1)
    assert group.random_short_scalar() == SHORT - 1


@pytest.fixture()
def draws(monkeypatch):
    """Counters on the two draws."""
    counts = {"full": 0, "short": 0}

    def counting(name, real):
        def draw():
            counts[name] += 1
            return real()
        return draw

    monkeypatch.setattr(group, "random_scalar", counting("full", group.random_scalar))
    monkeypatch.setattr(
        group, "random_short_scalar", counting("short", group.random_short_scalar)
    )
    return counts


def test_dh_keys_draw_short_and_nothing_else_does(draws):
    pairs = [DHKeyPair.generate() for _ in range(5)]
    assert draws == {"full": 0, "short": 5}
    assert all(1 <= pair.private < SHORT for pair in pairs)
    assert all(pair.public.value == pow(G, pair.private, P) for pair in pairs)


def test_schnorr_keys_and_nonces_stay_full_length(draws):
    """``s = k + x*e mod Q`` hides ``x*e`` only under a full-length ``k``: a
    signing key or nonce drawn short would leak the key."""
    key = SigningKey.generate()
    signatures = [key.sign(b"message %d" % i) for i in range(5)]
    assert draws == {"full": 6, "short": 0}
    for i, signature in enumerate(signatures):
        key.verify_key.verify(b"message %d" % i, signature)
    # 2047-bit uniform values: the chance of one below 2^2000 is 2^-47
    assert key.scalar.bit_length() > 2000
    assert all(signature.s.bit_length() > 2000 for signature in signatures)


def test_the_exponent_length_is_a_constant_not_an_option():
    assert group.SHORT_SCALAR_BITS == 256
    assert not inspect.signature(group.random_short_scalar).parameters
    assert not inspect.signature(DHKeyPair.generate).parameters


FIRST_USE_RACE = r"""
import hashlib, sys, threading
from repro.crypto import group
from repro.crypto.dh import DHKeyPair, DHPublicKey
from repro.crypto.signature import SigningKey

P, Q, G = group.P, group.Q, group.G
assert group._comb_table.cache_info().currsize == 0, "something built the table at import"
sys.setswitchinterval(1e-5)
barrier, failures, tables = threading.Barrier(8), [], []


def reference_verify(y, message, signature):  # the pre-comb expressions
    r = pow(G, signature.s, P) * pow(y, Q - signature.e, P) % P
    digest = hashlib.sha256(group.element_to_bytes(r) + message).digest()
    return int.from_bytes(digest, "big") % Q == signature.e


def work(i):
    try:
        barrier.wait(timeout=30)
        if i % 2:
            private = group.random_scalar()  # full length, like every key before PR 22
            pair = DHKeyPair(private, DHPublicKey(group.g_pow(private)))
            assert pair.public.value == pow(G, private, P)
        else:
            key, message = SigningKey.generate(), b"message %d" % i
            assert key.verify_key.value == pow(G, key.scalar, P)
            signature = key.sign(message)
            assert reference_verify(key.verify_key.value, message, signature)
            key.verify_key.verify(message, signature)
        tables.append(group._comb_table(256))
    except BaseException as exc:
        failures.append(f"thread {i}: {exc!r}")


threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads), "a thread hung"
assert not failures, failures
published = group._comb_table(256)
assert len(tables) == 8 and all(table == published for table in tables)
assert group._comb_table(256) is published and len(published) == 1024
print("ok")
"""

SHORT_FIRST_USE_RACE = r"""
import sys, threading
from repro.crypto import group
from repro.crypto.dh import DHKeyPair

P, G = group.P, group.G
assert group._comb_table.cache_info().currsize == 0, "something built a table at import"
sys.setswitchinterval(1e-5)
barrier, failures, tables = threading.Barrier(8), [], []


def work(i):
    try:
        barrier.wait(timeout=30)
        mine, theirs = DHKeyPair.generate(), DHKeyPair.generate()
        assert mine.private.bit_length() <= 256
        assert mine.public.value == pow(G, mine.private, P)
        assert mine.shared_secret(theirs.public) == theirs.shared_secret(mine.public)
        tables.append(group._comb_table(32))
    except BaseException as exc:
        failures.append(f"thread {i}: {exc!r}")


threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads), "a thread hung"
assert not failures, failures
published = group._comb_table(32)
assert len(tables) == 8 and all(table == published for table in tables)
assert group._comb_table(32) is published and len(published) == 1024
# key exchange alone never builds the full-length table
assert group._comb_table.cache_info().currsize == 1
print("ok")
"""


def run_in_a_fresh_interpreter(script):
    """So the race on the lazy build is real."""
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(REPO / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def test_first_use_of_the_table_from_eight_threads_at_once():
    run_in_a_fresh_interpreter(FIRST_USE_RACE)


def test_first_use_of_the_short_table_from_eight_threads_at_once():
    run_in_a_fresh_interpreter(SHORT_FIRST_USE_RACE)


def test_replaced_expressions_do_not_return():
    """Every ``G^x`` goes through ``g_pow`` and membership through the Jacobi
    symbol: the modexps they replaced appear nowhere under ``src/``."""
    banned = re.compile(r"pow\(group\.G\b|pow\(G,|, group\.Q, group\.P\)|, Q, P\)")
    hits = [
        f"{path.relative_to(REPO)}:{number}: {line.strip()}"
        for path in sorted((REPO / "src").rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert hits == []
