"""The resilience layer: deadlines, retries with backoff, circuit breakers.

The serving path survives injected (and real) partial failures with four
mechanisms, all deterministic under a seeded RNG and a logical clock:

- **deadlines** -- every request carries a time budget; when retries
  cannot beat it, :class:`~repro.errors.DeadlineExceeded` is raised
  rather than hanging;
- **retries** -- transport-level failures are retried with exponential
  backoff and decorrelated jitter (AWS-style), because the SeSeMI
  protocol operations are idempotent;
- **circuit breakers** -- a persistently failing endpoint flips its
  breaker open and callers fail fast with
  :class:`~repro.errors.CircuitOpen` until a cooldown admits one
  half-open probe;
- **failover** -- the KeyService fleet routes around dead shards (see
  :class:`repro.core.keyfleet.FailoverEndpoint`), and SeMIRT sessions
  relaunch crashed enclaves on the cold path.

Time comes from an :class:`repro.obs.span.Clock` so the same code is
deterministic in chaos runs (logical clock) and real in production
(wall clock).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Type

from repro.errors import (
    CircuitOpen,
    DeadlineExceeded,
    InvocationError,
    TransportError,
)
from repro.obs.span import Clock, WallClock
from repro.sim.rand import RandomStreams

#: error types a retry may fix: the op never completed (transport) or the
#: payload was mangled in flight (surfaces as an authentication failure
#: wrapped in InvocationError).  AccessDenied & friends are permanent.
RETRYABLE: Tuple[Type[BaseException], ...] = (TransportError, InvocationError)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter.

    ``delay(attempt)`` grows as ``base * multiplier**attempt`` capped at
    ``max_delay_s``; a jitter fraction drawn from a seeded stream keeps
    concurrent retriers from synchronising (and keeps chaos runs
    deterministic).
    """

    max_attempts: int = 4
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5

    def delay_s(self, attempt: int, jitter_draw: float = 0.0) -> float:
        """Backoff before retry ``attempt`` (0-based), jittered."""
        raw = self.backoff_base_s * (self.backoff_multiplier ** attempt)
        capped = min(raw, self.max_delay_s)
        return capped * (1.0 + self.jitter * jitter_draw)


@dataclass(frozen=True)
class BreakerPolicy:
    """When a circuit opens and how long it stays open."""

    failure_threshold: int = 5
    cooldown_s: float = 30.0


@dataclass(frozen=True)
class ResiliencePolicy:
    """Everything the serving path needs to survive partial failure.

    The paper's baseline -- no deadlines, no retries, no breakers -- is no
    policy at all: ``resilience=None``.
    """

    deadline_s: Optional[float] = 30.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    seed: int = 2025


class Deadline:
    """A per-request time budget read off a :class:`Clock`."""

    def __init__(self, clock: Clock, budget_s: Optional[float]) -> None:
        self._clock = clock
        self._budget = budget_s
        self._expires = None if budget_s is None else clock.now() + budget_s

    def expired(self) -> bool:
        """True once the budget is spent (never, for a None budget)."""
        return self._expires is not None and self._clock.now() >= self._expires

    def remaining(self) -> Optional[float]:
        """Seconds of the budget left (``0.0`` once spent; ``None`` for no budget)."""
        if self._expires is None:
            return None
        return max(0.0, self._expires - self._clock.now())

    def check(self, operation: str) -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(
                f"{operation}: deadline of {self._budget}s exceeded"
            )


class CircuitBreaker:
    """A per-endpoint breaker: closed -> open -> half-open -> closed.

    ``failure_threshold`` consecutive failures open the circuit; while
    open, :meth:`guard` raises :class:`CircuitOpen` without touching the
    endpoint.  After ``cooldown_s`` one probe call is admitted
    (*half-open*): success closes the circuit, failure re-opens it.
    """

    def __init__(
        self, policy: Optional[BreakerPolicy] = None, clock: Optional[Clock] = None
    ) -> None:
        self.policy = policy if policy is not None else BreakerPolicy()
        self.clock = clock or WallClock()
        self.failures = 0
        self.opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        """``closed``, ``open``, or ``half-open`` (introspection)."""
        if self.opened_at is None:
            return "closed"
        if self._cooled_down():
            return "half-open"
        return "open"

    def _cooled_down(self) -> bool:
        return (
            self.opened_at is not None
            and self.clock.now() - self.opened_at >= self.policy.cooldown_s
        )

    def guard(self, endpoint: str) -> None:
        """Raise :class:`CircuitOpen` unless a call may proceed now."""
        if self.opened_at is None:
            return
        if self._cooled_down() and not self._probing:
            self._probing = True  # admit exactly one half-open probe
            return
        raise CircuitOpen(
            f"circuit for {endpoint!r} is open "
            f"({self.failures} consecutive failures)"
        )

    def on_success(self) -> None:
        """A call succeeded: close the circuit and reset counters."""
        self.failures = 0
        self.opened_at = None
        self._probing = False

    def on_failure(self) -> None:
        """A call failed: count it; open the circuit at the threshold."""
        self.failures += 1
        self._probing = False
        if self.failures >= self.policy.failure_threshold:
            self.opened_at = self.clock.now()


class ResilientCaller:
    """Runs operations under one policy: deadline + retries + breaker.

    One caller serves one endpoint; pass a shared
    :class:`CircuitBreaker` to let several sessions trip it together.
    """

    def __init__(
        self,
        policy: ResiliencePolicy,
        clock: Optional[Clock] = None,
        breaker: Optional[CircuitBreaker] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.policy = policy
        self.clock = clock or WallClock()
        self.breaker = breaker or CircuitBreaker(policy.breaker, self.clock)
        self._sleep = sleep
        self._rand = RandomStreams(policy.seed)

    def call(
        self,
        operation: str,
        attempt_fn: Callable[[int], object],
        deadline: Optional[Deadline] = None,
        on_retry: Optional[Callable[[int, BaseException, float], None]] = None,
    ) -> object:
        """Run ``attempt_fn(attempt)`` until success, deadline, or give-up.

        Retries only :data:`RETRYABLE` errors; everything else (access
        denied, programming errors) propagates immediately.  ``on_retry``
        observes each retry (attempt index, error, backoff seconds) so
        sessions can record span events.
        """
        deadline = deadline or Deadline(self.clock, self.policy.deadline_s)
        retry = self.policy.retry
        last_error: Optional[BaseException] = None
        for attempt in range(max(1, retry.max_attempts)):
            deadline.check(operation)
            self.breaker.guard(operation)
            try:
                result = attempt_fn(attempt)
            except RETRYABLE as exc:
                self.breaker.on_failure()
                last_error = exc
                delay = retry.delay_s(
                    attempt, self._rand.uniform(f"jitter:{operation}")
                )
                if self._sleep is not None:
                    self._sleep(delay)
                if on_retry is not None:
                    on_retry(attempt, exc, delay)
                continue
            self.breaker.on_success()
            return result
        deadline.check(operation)  # prefer the deadline diagnosis
        raise TransportError(
            f"{operation}: all {retry.max_attempts} attempts failed"
        ) from last_error
