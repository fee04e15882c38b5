"""Arrival processes for the evaluation workloads.

- fixed-rate streams (the single-node rate sweeps of Figure 12);
- Poisson arrivals (popular-model traffic in the FnPacker experiments);
- Markov-modulated Poisson process alternating between two mean rates
  (the multi-node workload of Figures 13/14, following MArk/BATCH);
- interactive sessions in which one user queries a set of models
  sequentially (the MLPerf-style scenario of Table IV).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: when, which model, which user."""

    time: float
    model_id: str
    user_id: str


def fixed_rate(
    rate_rps: float, duration_s: float, model_id: str, user_id: str = "user"
) -> List[Arrival]:
    """Evenly-spaced arrivals at ``rate_rps`` for ``duration_s``."""
    if rate_rps <= 0:
        raise ConfigError("rate must be positive")
    interval = 1.0 / rate_rps
    count = int(duration_s * rate_rps)
    return [
        Arrival(time=i * interval, model_id=model_id, user_id=user_id)
        for i in range(count)
    ]


def poisson(
    rate_rps: float,
    duration_s: float,
    model_id: str,
    user_id: str = "user",
    rng: np.random.Generator | None = None,
) -> List[Arrival]:
    """Poisson arrivals at mean ``rate_rps`` for ``duration_s``."""
    if not 0 < rate_rps < math.inf:
        raise ConfigError(f"rate must be positive and finite, got {rate_rps!r}")
    rng = rng if rng is not None else np.random.default_rng(0)
    arrivals: List[Arrival] = []
    t = float(rng.exponential(1.0 / rate_rps))
    while t < duration_s:
        arrivals.append(Arrival(time=t, model_id=model_id, user_id=user_id))
        t += float(rng.exponential(1.0 / rate_rps))
    return arrivals


def mmpp(
    rates_rps: Sequence[float],
    phase_s: float,
    duration_s: float,
    model_id: str,
    user_id: str = "user",
    rng: np.random.Generator | None = None,
) -> List[Arrival]:
    """Markov-modulated Poisson process cycling through ``rates_rps``.

    The paper's workload alternates the mean rate between 20 and 40 rps
    (Section VI-C); each phase lasts ``phase_s`` seconds.
    """
    if not rates_rps or not all(0 < rate < math.inf for rate in rates_rps):
        raise ConfigError(
            f"mmpp needs phase rates, each positive and finite, got {tuple(rates_rps)}"
        )
    if not phase_s > 0:
        raise ConfigError(f"mmpp needs phase_s > 0, got {phase_s!r}")
    rng = rng if rng is not None else np.random.default_rng(0)
    arrivals: List[Arrival] = []
    phase_start = 0.0
    phase_index = 0
    while phase_start < duration_s:
        rate = rates_rps[phase_index % len(rates_rps)]
        phase_end = min(phase_start + phase_s, duration_s)
        t = phase_start + float(rng.exponential(1.0 / rate))
        while t < phase_end:
            arrivals.append(Arrival(time=t, model_id=model_id, user_id=user_id))
            t += float(rng.exponential(1.0 / rate))
        phase_start = phase_end
        phase_index += 1
    return arrivals


@dataclass(frozen=True)
class Session:
    """An interactive session: models queried one after another.

    The next query is issued only after the previous response arrives
    (a user trying several models on the same sample, Section VI-D).
    """

    start_time: float
    models: Tuple[str, ...]
    user_id: str = "analyst"

    def __post_init__(self) -> None:
        if not self.models:
            raise ConfigError("a session needs at least one model")


def merge_arrivals(*streams: Sequence[Arrival]) -> List[Arrival]:
    """Merge several arrival streams into one time-ordered list."""
    merged = [a for stream in streams for a in stream]
    merged.sort(key=lambda a: a.time)
    return merged
