"""A yardstick for the machine's speed at the moment of a measurement.

On a small shared VM the same code runs 20-70 % slower for tens of
seconds at a time when a neighbour is busy (bench/README.md), and ten
runs of one commit then spread further than any bound could allow.  The
benchmark therefore times a fixed piece of work of its own -- the
kernel below -- right before and after every window of the closed loop
and reports each window's times at *reference machine speed*: divided
by how much slower than the reference the kernel ran around that window.

The kernel uses only the standard library and numpy, never the program
under test, so a change to the program cannot move it.  Its three parts
are the kinds of work the twin spends its time on: interpreter dispatch,
small-array numpy calls and 2048-bit modular exponentiation.  Each part
is compared with its own reference time and the three ratios are
averaged, so no part outweighs another.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import List, Sequence, Tuple

import numpy as np

perf = time.perf_counter

_rnd = random.Random(5)
_SBOX = np.array(_rnd.sample(range(256), 256), dtype=np.uint8)
_STATE = np.frombuffer(_rnd.randbytes(192 * 16), dtype=np.uint8).reshape(192, 16)
_KEYS = np.frombuffer(_rnd.randbytes(10 * 16), dtype=np.uint8).reshape(10, 16)
_MODULUS = (1 << 2048) - 1557
_EXPONENT = _rnd.getrandbits(256)


def _interpreter() -> int:
    x = 0
    for i in range(20000):
        x += i * i
    return x


def _small_arrays() -> np.ndarray:
    state = _STATE
    for key in _KEYS:
        state = np.roll(_SBOX[state], 1, axis=1) ^ key
    return state


def _modexp() -> int:
    return pow(4, _EXPONENT, _MODULUS)


#: each part with its reference time in seconds: its median on the 2-vCPU VM
#: of the first recorded baseline (bench/README.md) while that VM ran
#: ``hot_inproc`` at its usual 4.2 ms
PARTS = (
    (_interpreter, 885e-6),
    (_small_arrays, 235e-6),
    (_modexp, 2460e-6),
)
#: kernel runs per calibration point (about 3.6 ms each)
REPEATS = 5


def sample() -> Tuple[float, ...]:
    """Run the kernel once; seconds taken by each part."""
    times = []
    for part, _ in PARTS:
        started = perf()
        part()
        times.append(perf() - started)
    return tuple(times)


def samples(count: int = REPEATS) -> List[Tuple[float, ...]]:
    """One calibration point: ``count`` runs of the kernel."""
    return [sample() for _ in range(count)]


def slowdown(points: Sequence[Tuple[float, ...]]) -> float:
    """How much slower than the reference the machine ran over ``points``.

    Per part the median of its times over its reference time; the mean
    of the parts.  1.0 is reference speed, 1.3 is 30 % slower.
    """
    return statistics.fmean(
        statistics.median(times) / reference
        for times, (_, reference) in zip(zip(*points), PARTS)
    )
