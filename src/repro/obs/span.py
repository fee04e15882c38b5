"""Spans, span contexts, and the clocks they read.

A *span* is one timed operation in the serving path -- an RA-TLS
handshake, one Figure-4 stage, a whole request.  Spans nest into trees
(each span knows its parent), carry free-form attributes (model id,
invocation flavour, enclave id, EPC pressure), and read their timestamps
from a :class:`Clock` so the same machinery serves both twins:

- the functional deployment uses :class:`WallClock` (monotonic seconds);
- the simulated twin uses :class:`SimClock`, which reads the discrete-
  event simulation's virtual ``now`` -- span durations then equal the
  virtual-time stage costs to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import SeSeMIError


class Clock:
    """Source of timestamps for spans (seconds as a float)."""

    def now(self) -> float:
        """Current time in seconds."""
        raise NotImplementedError


class WallClock(Clock):
    """Monotonic wall-clock time (the functional twin)."""

    def now(self) -> float:
        """Monotonic seconds from :func:`time.perf_counter`."""
        return perf_counter()


class SimClock(Clock):
    """Virtual time of a discrete-event simulation (the simulated twin)."""

    def __init__(self, sim) -> None:
        self._sim = sim

    def now(self) -> float:
        """The simulation's current virtual time."""
        return self._sim.now


class LogicalClock(Clock):
    """A deterministic logical clock: every read advances time one tick.

    Used by the chaos experiments, where wall-clock durations would make
    results non-reproducible: with a logical clock a span's duration is
    the number of timed operations on its critical path, so retries,
    re-attestations, and failovers *lengthen* requests deterministically
    and the latency numbers are bit-identical across runs.
    """

    def __init__(self) -> None:
        self._ticks = 0

    def now(self) -> float:
        """The next tick (reading the clock advances it)."""
        self._ticks += 1
        return float(self._ticks)

    @property
    def ticks(self) -> int:
        """Ticks handed out so far (introspection; does not advance)."""
        return self._ticks


@dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of a span: which trace, which span."""

    trace_id: str
    span_id: str

    def to_wire(self) -> dict:
        """JSON-friendly form for crossing process/enclave boundaries."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, data: dict) -> "SpanContext":
        """Rebuild a context received from a remote hop."""
        return cls(trace_id=str(data["trace_id"]), span_id=str(data["span_id"]))


class Span:
    """One timed, attributed operation; part of a trace tree.

    A slotted record: the ids are stored flat, :attr:`context` is built
    when asked for, and the event list exists only once
    :meth:`add_event` made one -- every span of every request is
    retained, so bytes per span are the tracer's footprint.

    A span from :meth:`Tracer.span <repro.obs.tracer.Tracer.span>` is
    its own context manager and is *opened* by ``__enter__``: that is
    where it takes its parent (the thread's ambient span), its ids and
    its one start-clock read.  Until then it has no ids.
    """

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "start", "end_time",
        "attributes", "status", "_events", "_tracer",
    )

    def __init__(
        self,
        name: str,
        attributes: Optional[Dict[str, Any]] = None,
        tracer: Any = None,
        *,
        context: Optional[SpanContext] = None,
        parent_id: Optional[str] = None,
        start: Optional[float] = None,
        end_time: Optional[float] = None,
        status: str = "ok",
        events: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        # the tracer calls Span(name, attributes, tracer) once per span:
        # positional, because keyword parsing was a fifth of a span's cost
        self.name = name
        if context is not None:
            self.trace_id = context.trace_id
            self.span_id = context.span_id
        self.parent_id = parent_id
        self.start = start
        self.end_time = end_time
        # kept, not copied: the tracer passes the caller's fresh **kwargs
        self.attributes = {} if attributes is None else attributes
        self.status = status
        self._events = events or None
        self._tracer = tracer

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = tracer._ambient.stack
        tracer._open(self, stack[-1] if stack else None)
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._ambient.stack.pop()
        self.end(None, "ok" if exc_type is None else "error")

    def __repr__(self) -> str:
        span_id = getattr(self, "span_id", None)  # None until opened
        return f"Span({self.name!r}, {span_id!r}, parent={self.parent_id!r})"

    @property
    def context(self) -> SpanContext:
        """The propagatable ``(trace_id, span_id)`` identity of this span."""
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    @property
    def events(self) -> Sequence[Dict[str, Any]]:
        """Point-in-time occurrences within the span (retries, faults, ...)."""
        return self._events or ()

    @property
    def ended(self) -> bool:
        """True once :meth:`end` has been called."""
        return self.end_time is not None

    @property
    def duration(self) -> Optional[float]:
        """Seconds from start to end, or ``None`` while still open."""
        if self.end_time is None:
            return None
        return self.end_time - self.start

    def set_attribute(self, key: str, value: Any) -> "Span":
        """Attach one attribute; returns the span for chaining."""
        self.attributes[key] = value
        return self

    def set_attributes(self, **attributes: Any) -> "Span":
        """Attach several attributes at once."""
        self.attributes.update(attributes)
        return self

    def add_event(self, name: str, **attributes: Any) -> "Span":
        """Record a point-in-time event inside the span.

        Events mark occurrences that have no duration of their own --
        an injected fault, a retry, a circuit opening, a failover to a
        replica -- and surface as instant events in the Chrome trace.
        The timestamp comes from the owning tracer's clock; detached
        spans stamp the event at the span start.
        """
        at = self._tracer.clock.now() if self._tracer is not None else self.start
        event = {"name": name, "at": at, "attributes": attributes}
        if self._events is None:
            self._events = [event]
        else:
            self._events.append(event)
        return self

    def end(self, end_time: Optional[float] = None, status: str = "ok") -> "Span":
        """Close the span (idempotent calls are an error).

        Reads the tracer's clock once unless ``end_time`` is given, and
        feeds the tracer's ``span.<name>.seconds`` histogram when it has
        a metrics registry.
        """
        if self.end_time is not None:
            raise SeSeMIError(f"span {self.name!r} already ended")
        tracer = self._tracer
        if tracer is None:  # detached span (e.g. rebuilt from JSON)
            self.end_time = end_time if end_time is not None else self.start
        else:
            self.end_time = end_time if end_time is not None else tracer.clock.now()
            if tracer.metrics is not None:
                tracer.metrics.histogram(f"span.{self.name}.seconds").observe(
                    self.end_time - self.start
                )
        self.status = status
        return self

    def to_mapping(self) -> dict:
        """JSON-friendly form (used by the exporters)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end_time,
            "status": self.status,
            "attributes": dict(self.attributes),
            "events": [dict(event) for event in self.events],
        }

    @classmethod
    def from_mapping(cls, data: dict) -> "Span":
        """Rebuild a span from its :meth:`to_mapping` form."""
        return cls(
            name=data["name"],
            context=SpanContext(
                trace_id=data["trace_id"], span_id=data["span_id"]
            ),
            parent_id=data.get("parent_id"),
            start=data["start"],
            end_time=data.get("end"),
            status=data.get("status", "ok"),
            attributes=dict(data.get("attributes", {})),
            events=[dict(event) for event in data.get("events", [])],
        )
