"""``repro.crypto.group``: Jacobi membership on the DH group, the derived
(2048, 256) signature group, the one comb every fixed base goes through, the
two draws (``[1, 2^256)`` for ephemeral DH keys, ``[1, SIG_Q)`` for Schnorr)
and the guarantee that the expressions they replaced stay replaced."""

import hashlib
import importlib.util
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
SIG_P, SIG_Q, SIG_G = group.SIG_P, group.SIG_Q, group.SIG_G


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
GENERATORS = [(group.g_pow, G, P), (group.sig_g_pow, SIG_G, SIG_P)]


# -- the signature group's parameters -------------------------------------------------

def _load_script():
    path = REPO / "scripts" / "make_sig_group.py"
    spec = importlib.util.spec_from_file_location("make_sig_group", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sig_group = _load_script()  # the derivation's own Miller-Rabin; importing it derives nothing


def is_strong_probable_prime(n: int) -> bool:
    """At sixteen fixed bases (the derivation used 64)."""
    return sig_group.miller_rabin(n, sig_group.MILLER_RABIN_BASES[:16])


def test_signature_group_parameters_are_what_the_docstring_says():
    assert SIG_P.bit_length() == 2048 and SIG_Q.bit_length() == 256
    assert is_strong_probable_prime(SIG_P) and is_strong_probable_prime(SIG_Q)
    assert not is_strong_probable_prime(3215031751)  # a strong pseudoprime to 2, 3, 5 and 7
    assert (SIG_P - 1) % SIG_Q == 0 and (SIG_P - 1) % (SIG_Q * SIG_Q) != 0
    assert 1 < SIG_G < SIG_P and pow(SIG_G, SIG_Q, SIG_P) == 1
    assert SIG_G == pow(2, (SIG_P - 1) // SIG_Q, SIG_P)
    assert sig_group.LABEL.decode() in inspect.getsource(group)  # the comment names the label
    # the DH group is a different one, and stays a safe prime
    assert SIG_P != P and P == 2 * Q + 1


# -- the fixed-base comb ---------------------------------------------------------------


@pytest.mark.parametrize("x", [*EDGES, *(-x for x in EDGES[1:]), Q + SHORT - 1, Q + SHORT, P])
def test_g_pow_is_pow_at_the_seam_between_the_two_tables(x):
    """The two tables a process keeps for generators are ``G``'s and
    ``SIG_G``'s, and both end at 2^256: below the seam a power is ``pow``,
    at or past it (and below zero) the exponent is refused -- there is no
    longer table to fall through to."""
    for fixed_pow, base, modulus in GENERATORS:
        if 0 <= x < SHORT:
            assert fixed_pow(x) == pow(base, x, modulus)
        else:
            with pytest.raises(ValueError, match="outside"):
                fixed_pow(x)


@pytest.mark.parametrize("x", [0, 1, 1 << 255, (1 << 256) - 1, SIG_Q - 1, SIG_Q])
def test_fixed_base_pow_is_pow_at_the_edges(x):
    inverse = pow(pow(SIG_G, 0xC0FFEE, SIG_P), -1, SIG_P)
    for base, modulus in ((G, P), (SIG_G, SIG_P), (inverse, SIG_P), (3, 1009)):
        assert group.FixedBase(base, modulus).pow(x) == pow(base, x, modulus)


def test_g_pow_is_pow_for_200_random_exponents_of_each_length():
    for draw in (lambda: secrets.randbits(256), lambda: secrets.randbits(secrets.randbelow(257))):
        for _ in range(200):
            x = draw()
            for fixed_pow, base, modulus in GENERATORS:
                assert fixed_pow(x) == pow(base, x, modulus), hex(x)


@settings(max_examples=60, deadline=None)
@given(x=st.one_of(
    st.integers(min_value=0, max_value=SHORT - 1),
    st.integers(min_value=-(1 << 2100), max_value=1 << 2100),
))
@example(x=SHORT - 1)
@example(x=SHORT)
@example(x=-1)
def test_g_pow_is_pow_for_any_integer(x):
    """For any integer: ``pow`` inside ``[0, 2^256)``, refused outside it."""
    for fixed_pow, base, modulus in GENERATORS:
        if 0 <= x < SHORT:
            assert fixed_pow(x) == pow(base, x, modulus)
        else:
            with pytest.raises(ValueError, match="outside"):
                fixed_pow(x)


def test_there_is_one_span_and_no_second_lane():
    """No full-length table, no span argument, no built-in-``pow`` fallback."""
    assert not hasattr(group, "_comb_table") and not hasattr(group, "random_scalar")
    assert list(inspect.signature(group.FixedBase).parameters) == ["base", "modulus"]
    assert list(inspect.signature(group.FixedBase.pow).parameters) == ["self", "x"]
    source = inspect.getsource(group.FixedBase)
    assert "pow(" not in source.replace("def pow(", "")


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


def test_sig_draw_is_uniform_over_1_to_sig_q(monkeypatch):
    """The same 1,000-sample check for the Schnorr draw: the whole order."""
    source, bounds = random.Random(23), set()

    def randbelow(bound):
        bounds.add(bound)
        return source.randrange(bound)

    monkeypatch.setattr(group.secrets, "randbelow", randbelow)
    samples = [group.random_sig_scalar() for _ in range(1000)]
    assert all(1 <= x < SIG_Q for x in samples) and len(set(samples)) == 1000
    assert bounds == {SIG_Q - 1}
    assert max(samples) > SIG_Q - (SIG_Q >> 8) and min(samples).bit_length() > 240
    monkeypatch.setattr(group.secrets, "randbelow", lambda bound: 0)
    assert group.random_sig_scalar() == 1  # never 0
    monkeypatch.setattr(group.secrets, "randbelow", lambda bound: bound - 1)
    assert group.random_sig_scalar() == SIG_Q - 1


@pytest.fixture()
def draws(monkeypatch):
    """Counters on the two draws."""
    counts = {"sig": 0, "short": 0}

    def counting(name, real):
        def draw():
            counts[name] += 1
            return real()
        return draw

    monkeypatch.setattr(group, "random_sig_scalar", counting("sig", group.random_sig_scalar))
    monkeypatch.setattr(
        group, "random_short_scalar", counting("short", group.random_short_scalar)
    )
    return counts


def test_dh_keys_draw_short_and_nothing_else_does(draws):
    pairs = [DHKeyPair.generate() for _ in range(5)]
    assert draws == {"sig": 0, "short": 5}
    assert all(1 <= pair.private < SHORT for pair in pairs)
    assert all(pair.public.value == pow(G, pair.private, P) for pair in pairs)


def test_schnorr_keys_and_nonces_stay_full_length(draws, monkeypatch):
    """Keys and nonces are uniform over the whole of ``[1, SIG_Q)`` -- the
    full length of the order: ``s = k + x*e mod SIG_Q`` hides ``x*e`` only
    under such a ``k``; one drawn from a shorter lane would leak the key."""
    key = SigningKey.generate()
    signatures = [key.sign(b"message %d" % i) for i in range(40)]
    assert draws == {"sig": 41, "short": 0}  # one key, one nonce per signature
    for i, signature in enumerate(signatures):
        key.verify_key.verify(b"message %d" % i, signature)
        assert 0 <= signature.s < SIG_Q
    # 41 uniform values below a 256-bit q: every one under 2^250 has chance 2^-200
    assert max(s.s.bit_length() for s in signatures) > 250

    # the nonce is the draw, all of it: a pinned k gives s = k + x*e mod SIG_Q exactly
    for k in (1, SIG_Q - 1, SIG_Q >> 1):
        monkeypatch.setattr(group, "random_sig_scalar", lambda: k)
        signature = key.sign(b"pinned")
        assert signature.s == (k + key.scalar * signature.e) % SIG_Q
        r = group.element_to_bytes(pow(SIG_G, k, SIG_P)) + b"pinned"
        assert signature.e == int.from_bytes(hashlib.sha256(r).digest(), "big") % SIG_Q


def test_the_exponent_length_is_a_constant_not_an_option():
    assert group.SHORT_SCALAR_BITS == 256
    assert not inspect.signature(group.random_short_scalar).parameters
    assert not inspect.signature(DHKeyPair.generate).parameters


FIRST_USE_RACE = r"""
import hashlib, sys, threading
from repro.crypto import group
from repro.crypto.signature import SigningKey

SIG_P, SIG_Q, SIG_G = group.SIG_P, group.SIG_Q, group.SIG_G
generator = group.sig_g_pow.__self__
assert "table" not in vars(generator), "something built the table at import"
signer = SigningKey(group.random_sig_scalar())
root = signer.verify_key  # one long-lived key object, as AttestationService holds them
assert "table" in vars(generator) and "_inverse" not in vars(root)
del vars(generator)["table"]  # computing the public key built it: start the race cold
sys.setswitchinterval(1e-5)
barrier, failures, tables = threading.Barrier(8), [], []


def reference_verify(y, message, signature):  # the textbook expressions
    r = pow(SIG_G, signature.s, SIG_P) * pow(y, SIG_Q - signature.e, SIG_P) % SIG_P
    digest = hashlib.sha256(group.element_to_bytes(r) + message).digest()
    return int.from_bytes(digest, "big") % SIG_Q == signature.e


def work(i):
    try:
        message = b"message %d" % i
        barrier.wait(timeout=30)
        signature = signer.sign(message)
        assert reference_verify(root.value, message, signature)
        root.verify(message, signature)
        tables.append((generator.table, root._inverse.table))
    except BaseException as exc:
        failures.append(f"thread {i}: {exc!r}")


threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads), "a thread hung"
assert not failures, failures
published = (generator.table, root._inverse.table)
assert len(tables) == 8 and all(pair == published for pair in tables)
assert generator.table is published[0] and root._inverse.table is published[1]
assert len(published[0]) == len(published[1]) == 1024
assert published[0][1] == SIG_G and published[1][1] == pow(root.value, -1, SIG_P)
# signing and verifying never touch the DH generator's table
assert "table" not in vars(group.g_pow.__self__)
print("ok")
"""

SHORT_FIRST_USE_RACE = r"""
import sys, threading
from repro.crypto import group
from repro.crypto.dh import DHKeyPair

P, G = group.P, group.G
generator = group.g_pow.__self__
assert "table" not in vars(generator), "something built a table at import"
sys.setswitchinterval(1e-5)
barrier, failures, tables = threading.Barrier(8), [], []


def work(i):
    try:
        barrier.wait(timeout=30)
        mine, theirs = DHKeyPair.generate(), DHKeyPair.generate()
        assert mine.private.bit_length() <= 256
        assert mine.public.value == pow(G, mine.private, P)
        assert mine.shared_secret(theirs.public) == theirs.shared_secret(mine.public)
        tables.append(generator.table)
    except BaseException as exc:
        failures.append(f"thread {i}: {exc!r}")


threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads), "a thread hung"
assert not failures, failures
published = generator.table
assert len(tables) == 8 and all(table == published for table in tables)
assert generator.table is published and len(published) == 1024
# key exchange alone never builds the signature generator's table
assert "table" not in vars(group.sig_g_pow.__self__)
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
    """``SIG_G``'s table and one root key's, raced by eight signers / verifiers."""
    run_in_a_fresh_interpreter(FIRST_USE_RACE)


def test_first_use_of_the_short_table_from_eight_threads_at_once():
    run_in_a_fresh_interpreter(SHORT_FIRST_USE_RACE)


def test_replaced_expressions_do_not_return():
    """Every ``G^x`` and ``SIG_G^x`` goes through its comb, DH membership
    through the Jacobi symbol and a verify key's through its own table: the
    modexps they replaced appear nowhere under ``src/``."""
    banned = re.compile(
        r"pow\(group\.(SIG_)?G\b|pow\((SIG_)?G,"
        r"|, group\.(SIG_)?Q, group\.(SIG_)?P\)|, (SIG_)?Q, (SIG_)?P\)"
    )
    hits = [
        f"{path.relative_to(REPO)}:{number}: {line.strip()}"
        for path in sorted((REPO / "src").rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert hits == []
