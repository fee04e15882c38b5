"""Deadlines, retry-with-backoff, and circuit breakers."""

import pytest

from repro.errors import (
    AccessDenied,
    CircuitOpen,
    DeadlineExceeded,
    TransportError,
)
from repro.faults.resilience import (
    BreakerPolicy,
    CircuitBreaker,
    Deadline,
    ResiliencePolicy,
    ResilientCaller,
    RetryPolicy,
)
from repro.obs.span import LogicalClock


def test_deadline_expires_on_the_clock():
    clock = LogicalClock()
    deadline = Deadline(clock, budget_s=3.0)
    deadline.check("op")  # plenty of budget left
    for _ in range(5):
        clock.now()
    with pytest.raises(DeadlineExceeded):
        deadline.check("op")


def test_none_deadline_never_expires():
    clock = LogicalClock()
    deadline = Deadline(clock, budget_s=None)
    for _ in range(100):
        clock.now()
    assert not deadline.expired()


def test_deadline_remaining_counts_down_to_zero():
    clock = LogicalClock()
    deadline = Deadline(clock, budget_s=3.0)
    left = [deadline.remaining() for _ in range(5)]
    assert left == sorted(left, reverse=True) and left[0] < 3.0
    assert left[-1] == 0.0 and deadline.expired()
    assert Deadline(clock, budget_s=None).remaining() is None


def test_retry_policy_backoff_grows_and_caps():
    policy = RetryPolicy(
        backoff_base_s=0.1, backoff_multiplier=2.0, max_delay_s=0.5, jitter=0.0
    )
    delays = [policy.delay_s(attempt) for attempt in range(5)]
    assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]
    jittered = RetryPolicy(backoff_base_s=0.1, jitter=0.5)
    assert jittered.delay_s(0, jitter_draw=1.0) == pytest.approx(0.15)


def test_breaker_opens_after_threshold_and_probes_after_cooldown():
    clock = LogicalClock()
    breaker = CircuitBreaker(
        BreakerPolicy(failure_threshold=2, cooldown_s=5.0), clock
    )
    assert breaker.state == "closed"
    breaker.on_failure()
    breaker.guard("ep")  # still closed after one failure
    breaker.on_failure()
    assert breaker.state == "open"
    with pytest.raises(CircuitOpen):
        breaker.guard("ep")
    for _ in range(6):
        clock.now()  # cooldown elapses
    assert breaker.state == "half-open"
    breaker.guard("ep")  # the single probe is admitted
    with pytest.raises(CircuitOpen):
        breaker.guard("ep")  # ...but only one
    breaker.on_success()
    assert breaker.state == "closed"


def test_caller_retries_transient_errors():
    attempts = []

    def flaky(attempt):
        attempts.append(attempt)
        if attempt < 2:
            raise TransportError("flake")
        return "done"

    caller = ResilientCaller(ResiliencePolicy(deadline_s=None), LogicalClock())
    assert caller.call("op", flaky) == "done"
    assert attempts == [0, 1, 2]


def test_caller_does_not_retry_permanent_errors():
    attempts = []

    def denied(attempt):
        attempts.append(attempt)
        raise AccessDenied("no grant")

    caller = ResilientCaller(ResiliencePolicy(deadline_s=None), LogicalClock())
    with pytest.raises(AccessDenied):
        caller.call("op", denied)
    assert attempts == [0]


def test_caller_gives_up_with_transport_error():
    caller = ResilientCaller(
        ResiliencePolicy(deadline_s=None, retry=RetryPolicy(max_attempts=3)),
        LogicalClock(),
    )
    observed = []
    with pytest.raises(TransportError, match="all 3 attempts"):
        caller.call(
            "op",
            lambda attempt: (_ for _ in ()).throw(TransportError("down")),
            on_retry=lambda attempt, exc, delay: observed.append(attempt),
        )
    assert observed == [0, 1, 2]


def test_caller_respects_deadline_between_attempts():
    clock = LogicalClock()
    caller = ResilientCaller(ResiliencePolicy(deadline_s=2.0), clock)

    def slow_failure(attempt):
        for _ in range(3):
            clock.now()  # burn budget
        raise TransportError("down")

    with pytest.raises(DeadlineExceeded):
        caller.call("op", slow_failure)


def test_caller_trips_shared_breaker():
    clock = LogicalClock()
    policy = ResiliencePolicy(
        deadline_s=None,
        retry=RetryPolicy(max_attempts=2),
        breaker=BreakerPolicy(failure_threshold=2, cooldown_s=1e9),
    )
    breaker = CircuitBreaker(policy.breaker, clock)
    caller = ResilientCaller(policy, clock, breaker=breaker)
    with pytest.raises(TransportError):
        caller.call(
            "op", lambda a: (_ for _ in ()).throw(TransportError("down"))
        )
    with pytest.raises(CircuitOpen):
        caller.call("op", lambda a: "never reached")
