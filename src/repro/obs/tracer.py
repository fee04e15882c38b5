"""The tracer: span factory, ambient context, and metrics bridge.

One :class:`Tracer` instance observes one deployment (functional or
simulated).  It hands out spans two ways:

- :meth:`Tracer.span` -- a context manager using an *ambient* per-thread
  span stack, the natural fit for the synchronous functional path
  (``UserSession.infer`` -> ECALL -> stages nest automatically);
- :meth:`Tracer.start_span` with an explicit ``parent`` -- required in
  the simulation, where many interleaved generator processes share one
  Python thread and an ambient stack would cross-contaminate traces.

Every finished span is retained for export/analysis, and -- when the
tracer is constructed with a
:class:`~repro.serverless.telemetry.MetricsRegistry` -- its duration is
automatically observed into a ``span.<name>.seconds`` histogram, so the
Prometheus-style scrape surface and the trace trees stay consistent.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import nullcontext
from typing import Any, Dict, List, Optional

from repro.obs.span import Clock, Span, WallClock


class Tracer:
    """Creates, collects, and finishes spans for one deployment."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        metrics=None,
        service: str = "sesemi",
    ) -> None:
        self.clock = clock or WallClock()
        self.metrics = metrics
        self.service = service
        self.spans: List[Span] = []
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._ambient = _Ambient()

    # -- span creation -------------------------------------------------------

    def start_span(
        self,
        name: str,
        parent: Optional[Span] = None,
        **attributes: Any,
    ) -> Span:
        """Open a span explicitly; ``parent=None`` starts a new trace."""
        span = Span(name, attributes, self)
        self._open(span, parent)
        return span

    def span(self, name: str, **attributes: Any) -> Span:
        """A span to open with ``with``, under the ambient current span.

        Nothing is read or assigned until ``__enter__`` (see
        :class:`~repro.obs.span.Span`); leaving the block pops the
        thread's stack and ends the span, with status ``error`` when the
        block raised.
        """
        return Span(name, attributes, self)

    def _open(self, span: Span, parent: Optional[Span]) -> None:
        """Give ``span`` its parent and ids, read its start, retain it."""
        if parent is None:
            span.trace_id = f"trace-{next(self._trace_ids)}"
        else:
            span.trace_id = parent.trace_id
            span.parent_id = parent.span_id
        span.span_id = f"span-{next(self._span_ids)}"
        span.start = self.clock.now()
        self.spans.append(span)

    def attach(self, span: Span) -> "_Attach":
        """Adopt an existing ``span`` as this thread's ambient parent.

        Worker threads (e.g. the SeMIRT TCS scheduler) use this to
        parent their spans under a request span that was opened on the
        *submitting* thread: the ambient stack is per-thread, so without
        an explicit attach the worker's spans would start new traces.
        The span is NOT ended on exit -- it still belongs to whoever
        opened it.
        """
        return _Attach(self._ambient, span)

    def current_span(self) -> Optional[Span]:
        """The innermost ambient span on this thread, if any."""
        stack = self._ambient.stack
        return stack[-1] if stack else None

    # -- retrieval -------------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        """All spans that have ended, in start order."""
        return [s for s in self.spans if s.ended]

    def trace(self, trace_id: str) -> List[Span]:
        """All spans belonging to one trace, in start order."""
        return [s for s in self.spans if s.trace_id == trace_id]

    def trace_ids(self) -> List[str]:
        """Distinct trace ids, in first-seen order."""
        seen: Dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def roots(self) -> List[Span]:
        """The root span of every trace, in start order."""
        return [s for s in self.spans if s.parent_id is None]

    def clear(self) -> None:
        """Drop all collected spans (between experiment repetitions)."""
        self.spans.clear()


class _Ambient(threading.local):
    """The per-thread stack of ambient spans (innermost last)."""

    def __init__(self) -> None:
        self.stack: List[Span] = []


class _Attach:
    """:meth:`Tracer.attach`: push ``span`` on entry, pop it on exit."""

    __slots__ = ("_ambient", "_span")

    def __init__(self, ambient: _Ambient, span: Span) -> None:
        self._ambient = ambient
        self._span = span

    def __enter__(self) -> Span:
        self._ambient.stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._ambient.stack.pop()


def maybe_span(tracer: Optional[Tracer], name: str, **attributes: Any):
    """A ``tracer.span(...)`` context manager, or a no-op when untraced.

    Instrumentation sites call this so components stay tracer-optional:
    constructing a SeMIRT host or client without a tracer costs nothing.
    """
    if tracer is None:
        return nullcontext(None)
    return Span(name, attributes, tracer)  # tracer.span(), minus a kwargs copy
