"""Derive the quote-signature group ``(SIG_P, SIG_Q, SIG_G)`` of ``repro.crypto.group``.

Offline and deterministic: FIPS 186-4 style (L = 2048, N = 256) Schnorr / DSA
domain parameters, nothing up the sleeve.  Every candidate comes, in order,
from one published stream::

    stream = SHAKE-256(LABEL)

- ``q`` = the first probable prime among the stream's consecutive 32-byte
  blocks, each read big-endian with its top and bottom bit forced to 1;
- ``p`` = the first probable prime of exactly 2,048 bits among
  ``X - (X mod 2q) + 1`` for the consecutive 256-byte blocks ``X`` that follow
  (top bit forced to 1), so ``p = 1 (mod 2q)``;
- ``g = 2^((p - 1) / q) mod p``, which has order ``q`` because it is not 1.

"Probable prime" is trial division by the primes below 2,000 and then
Miller-Rabin at the first 64 primes as bases; the candidates are hash outputs,
not an adversary's choice, so fixed bases are as good as random ones.  About
two seconds of stdlib arithmetic, run by hand when the label changes -- never
at import, set-up or run time: ``group.py`` holds the three results as
literals, ``--check`` re-derives them and diffs (CI runs it beside
``make_pk_kat.py --check``), and without ``--check`` the script prints the
literals to paste.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import textwrap

LABEL = b"repro.crypto.group: quote-signature group, FIPS 186-4 (L=2048, N=256), v1"
P_BITS, Q_BITS = 2048, 256
STREAM_BYTES = 1 << 20  # ~4,000 candidates for p; about 700 are expected to be needed


def small_primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for n in range(2, int(limit**0.5) + 1):
        if sieve[n]:
            sieve[n * n :: n] = bytes(len(range(n * n, limit, n)))
    return [n for n in range(limit) if sieve[n]]


TRIAL_PRIMES = small_primes(2000)
MILLER_RABIN_BASES = TRIAL_PRIMES[:64]


def miller_rabin(n: int, bases) -> bool:
    """True when odd ``n > 3`` is a strong probable prime to every base."""
    odd, twos = n - 1, 0
    while not odd & 1:
        odd, twos = odd >> 1, twos + 1
    for base in bases:
        x = pow(base, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_probable_prime(n: int) -> bool:
    """For the 256- and 2,048-bit candidates of :func:`derive` (all far above 2,000)."""
    return all(n % prime for prime in TRIAL_PRIMES) and miller_rabin(n, MILLER_RABIN_BASES)


def derive() -> dict[str, int]:
    """``{"SIG_P": p, "SIG_Q": q, "SIG_G": g}`` from :data:`LABEL`."""
    stream = hashlib.shake_256(LABEL).digest(STREAM_BYTES)
    offset = 0

    def block(bits: int) -> int:
        nonlocal offset
        raw = stream[offset : offset + bits // 8]
        if len(raw) < bits // 8:
            raise SystemExit("stream exhausted: raise STREAM_BYTES")
        offset += bits // 8
        return int.from_bytes(raw, "big") | 1 << bits - 1

    q = block(Q_BITS) | 1
    while not is_probable_prime(q):
        q = block(Q_BITS) | 1
    while True:
        x = block(P_BITS)
        p = x - x % (2 * q) + 1
        if p.bit_length() == P_BITS and is_probable_prime(p):
            break
    g = pow(2, (p - 1) // q, p)
    if g == 1:
        raise SystemExit("2 has order dividing (p - 1) / q: change the label")
    return {"SIG_P": p, "SIG_Q": q, "SIG_G": g}


def literal(name: str, value: int) -> str:
    digits = format(value, "X")
    if len(digits) <= 64:
        return f'{name} = int("{digits}", 16)'
    lines = textwrap.wrap(digits, 48)
    body = "\n".join(f'    "{line}"' for line in lines)
    return f"{name} = int(\n{body},\n    16,\n)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-derive and diff against the literals in repro.crypto.group",
    )
    args = parser.parse_args(argv)
    derived = derive()
    if not args.check:
        print("\n".join(literal(name, value) for name, value in derived.items()))
        return 0
    from repro.crypto import group

    stale = [name for name, value in derived.items() if getattr(group, name, None) != value]
    if stale:
        print(f"repro.crypto.group does not reproduce: {', '.join(stale)} differ", file=sys.stderr)
        return 1
    print(
        f"repro.crypto.group reproduces SIG_P ({derived['SIG_P'].bit_length()} bits), "
        f"SIG_Q ({derived['SIG_Q'].bit_length()} bits), SIG_G from {LABEL.decode()!r}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
