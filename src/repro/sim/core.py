"""Deterministic discrete-event simulation core.

A small SimPy-style engine: processes are Python generators that yield
*events* (timeouts, resource requests, store gets, or plain events) and
are resumed when those events fire.  The event heap is ordered by
``(time, sequence)`` so runs are fully deterministic, which the
experiment harness relies on for reproducible tables.

The serverless platform, SeMIRT actors, and workload drivers are all
built as processes on this core; virtual time lets the eight-minute MMPP
experiments of Figures 13/14 run in milliseconds of wall-clock.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.errors import SimulationError


class Event:
    """A one-shot occurrence processes can wait on."""

    __slots__ = ("sim", "callbacks", "_value", "_exc", "triggered", "processed")

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self.triggered = False
        self.processed = False

    @property
    def value(self) -> Any:
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def ok(self) -> bool:
        return self.triggered and self._exc is None

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire with ``value`` after ``delay``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire by raising ``exc`` in waiters."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self._exc = exc
        self.sim._schedule(self, delay)
        return self


class Timeout(Event):
    """Fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulation", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(sim)
        self.delay = delay
        self.triggered = True
        self._value = value
        sim._schedule(self, delay)


class Process(Event):
    """A running generator; itself an event that fires when it returns."""

    __slots__ = ("generator", "name")

    def __init__(
        self, sim: "Simulation", generator: Generator, name: str = ""
    ) -> None:
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    def _resume(self, fired: Event) -> None:
        try:
            if fired._exc is not None:
                target = self.generator.throw(fired._exc)
            else:
                target = self.generator.send(fired._value)
        except StopIteration as stop:
            if not self.triggered:
                self.succeed(stop.value)
            return
        except BaseException as exc:
            if not self.triggered:
                self.fail(exc)
                return
            raise
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances (timeout, request, get, ...)"
            )
        if target.processed:
            raise SimulationError(
                f"process {self.name!r} waited on an already-processed event"
            )
        target.callbacks.append(self._resume)


class Simulation:
    """The event loop: clock, heap, and process factory."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list = []
        self._sequence = itertools.count()

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- factories ---------------------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires after ``delay`` seconds of virtual time."""
        return Timeout(self, delay, value)

    def at(self, time: float) -> Event:
        """An event that fires at virtual time ``time`` exactly.

        ``timeout(time - now)`` can land an ulp off ``time``; a deadline
        computed elsewhere (a keep-alive expiry) must fire on it.
        """
        if time < self._now:
            raise SimulationError(f"time {time} is in the past")
        event = Event(self)
        event.triggered = True
        heapq.heappush(self._heap, (time, next(self._sequence), event))
        return event

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start ``generator`` as a process."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that fires once every event in ``events`` has fired."""
        events = list(events)
        gate = self.event()
        remaining = len(events)
        if remaining == 0:
            return gate.succeed([])
        state = {"left": remaining}

        def _one_done(fired: Event) -> None:
            state["left"] -= 1
            if state["left"] == 0 and not gate.triggered:
                gate.succeed([e._value for e in events])

        for e in events:
            if e.processed:
                _one_done(e)
            else:
                e.callbacks.append(_one_done)
        return gate

    # -- scheduling --------------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        heapq.heappush(self._heap, (self._now + delay, next(self._sequence), event))

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the heap drains or ``until`` is reached."""
        while self._heap:
            at, _, event = self._heap[0]
            if until is not None and at > until:
                self._now = until
                return self._now
            heapq.heappop(self._heap)
            self._now = at
            event.processed = True
            callbacks, event.callbacks = event.callbacks, []
            for callback in callbacks:
                callback(event)
        if until is not None:
            self._now = max(self._now, until)
        return self._now

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: run ``generator`` to completion and return its value."""
        proc = self.process(generator, name)
        self.run()
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} did not finish (deadlock or missing event)"
            )
        return proc.value
