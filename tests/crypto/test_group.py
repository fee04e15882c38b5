"""``repro.crypto.group``: Jacobi membership, the shared comb table for ``G``,
and the guarantee that the expressions they replaced stay replaced."""

import pathlib
import re
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import group

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


FIRST_USE_RACE = r"""
import hashlib, sys, threading
from repro.crypto import group
from repro.crypto.dh import DHKeyPair
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
            pair = DHKeyPair.generate()
            assert pair.public.value == pow(G, pair.private, P)
        else:
            key, message = SigningKey.generate(), b"message %d" % i
            assert key.verify_key.value == pow(G, key.scalar, P)
            signature = key.sign(message)
            assert reference_verify(key.verify_key.value, message, signature)
            key.verify_key.verify(message, signature)
        tables.append(group._comb_table())
    except BaseException as exc:
        failures.append(f"thread {i}: {exc!r}")


threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads), "a thread hung"
assert not failures, failures
published = group._comb_table()
assert len(tables) == 8 and all(table == published for table in tables)
assert group._comb_table() is published and len(published) == 1024
print("ok")
"""


def test_first_use_of_the_table_from_eight_threads_at_once():
    """A fresh interpreter, so the race on the lazy build is real."""
    result = subprocess.run(
        [sys.executable, "-c", FIRST_USE_RACE],
        env={"PYTHONPATH": str(REPO / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


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
