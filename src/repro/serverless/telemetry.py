"""Prometheus-style metrics for the simulated platform.

The paper's testbed deploys Prometheus next to OpenWhisk to collect
container metrics (Appendix F); this module is the equivalent
observability surface for the simulation: counters, gauges, histograms,
and time series that experiments can scrape after a run.

All metrics are pull-free and in-memory; the registry is attached to a
controller at construction and populated as scheduling events happen.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Increase the counter (amount must be non-negative)."""
        if amount < 0:
            raise ConfigError("counters only go up")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can move both ways."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge value."""
        self._value = value

    def add(self, delta: float) -> None:
        """Move the gauge by ``delta``."""
        self._value += delta

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Bucketed observations with quantile estimates."""

    DEFAULT_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

    def __init__(self, name: str, buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(
            sorted(buckets if buckets is not None else self.DEFAULT_BUCKETS)
        )
        if not self.buckets:
            raise ConfigError("a histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.buckets) + 1)  # +inf overflow bucket
        self._sum = 0.0
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        index = bisect.bisect_left(self.buckets, value)
        self._counts[index] += 1
        self._sum += value
        self._count += 1
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        """Smallest observation so far (0.0 when empty)."""
        return self._min if self._min is not None else 0.0

    @property
    def max(self) -> float:
        """Largest observation so far (0.0 when empty)."""
        return self._max if self._max is not None else 0.0

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the q-quantile from bucket counts.

        ``q=0`` returns the exact minimum observation (the naive bucket
        scan would return the first bucket bound regardless of where the
        data sits); other quantiles return the upper bound of the bucket
        containing the target rank, ``+inf`` past the last bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError("quantile must be in [0, 1]")
        if self._count == 0:
            return 0.0
        if q == 0.0:
            return self.min
        target = q * self._count
        cumulative = 0
        for bound, count in zip(self.buckets, self._counts):
            cumulative += count
            if cumulative >= target:
                return bound
        return float("inf")


class TimeSeries:
    """(time, value) samples of a step function, with an integral."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[Tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        """Append a (time, value) sample; times must not go backwards."""
        if self.samples and time < self.samples[-1][0]:
            raise ConfigError("time series samples must be time-ordered")
        self.samples.append((time, value))

    @property
    def last(self) -> float:
        return self.samples[-1][1] if self.samples else 0.0

    @property
    def peak(self) -> float:
        return max((v for _, v in self.samples), default=0.0)

    def integral(self, until: float) -> float:
        """Integrate the step function from its first sample to ``until``."""
        return step_integral(self.samples, until)


def step_integral(samples: Sequence[Tuple[float, float]], until: float) -> float:
    """Integrate the step function ``samples`` from its first sample to
    ``until`` (each level holds until the next sample's time)."""
    total = 0.0
    for (t0, level), (t1, _) in zip(samples, samples[1:]):
        if t0 >= until:
            break
        span = min(t1, until) - t0
        if span > 0:
            total += level * span
    if samples:
        t_last, level = samples[-1]
        if t_last < until:
            total += level * (until - t_last)
    return total


@dataclass
class MetricsRegistry:
    """Named metric store; metrics are created on first access."""

    counters: Dict[str, Counter] = field(default_factory=dict)
    gauges: Dict[str, Gauge] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    series: Dict[str, TimeSeries] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        """Fetch or create the named counter."""
        return self.counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        """Fetch or create the named gauge."""
        return self.gauges.setdefault(name, Gauge(name))

    def histogram(self, name: str, buckets=None) -> Histogram:
        """Fetch or create the named histogram."""
        if name not in self.histograms:
            self.histograms[name] = Histogram(name, buckets)
        return self.histograms[name]

    def time_series(self, name: str) -> TimeSeries:
        """Fetch or create the named time series."""
        return self.series.setdefault(name, TimeSeries(name))

    def snapshot(self) -> Dict[str, float]:
        """A flat scrape of current values (counters, gauges, means)."""
        out: Dict[str, float] = {}
        for name, counter in self.counters.items():
            out[name] = counter.value
        for name, gauge in self.gauges.items():
            out[name] = gauge.value
        for name, histogram in self.histograms.items():
            out[f"{name}.mean"] = histogram.mean
            out[f"{name}.count"] = float(histogram.count)
            out[f"{name}.p50"] = histogram.quantile(0.50)
            out[f"{name}.p95"] = histogram.quantile(0.95)
            out[f"{name}.p99"] = histogram.quantile(0.99)
        for name, series in self.series.items():
            out[f"{name}.last"] = series.last
        return out
