"""Asynchronous result handles: one protocol, one cell, one derived base.

Every tier of the stack hands back "a result you can wait on", and all
of them are built from the three pieces in this module:

- :class:`Future` is the structural protocol callers are written
  against -- ``result(timeout_s)`` / ``done()`` / ``cancel()``.
- :class:`OutcomeCell` is the **only** place the wait/cancel state
  machine is implemented: one :class:`threading.Condition`, one
  transition ``pending -> value | error | cancelled``, plus an ordered
  list of pushed items whose stream view is :class:`StreamCell`.  The
  TCS scheduler's :class:`~repro.core.semirt.InferenceFuture` and
  :class:`~repro.core.semirt.InferenceStream` are this cell plus
  request metadata, with the scheduler as producer
  (:meth:`~OutcomeCell.set_result` / :meth:`~OutcomeCell.set_error` /
  :meth:`~OutcomeCell.push` / :meth:`~OutcomeCell.cancel_requested`);
  the HTTP client's handles are the same cell fed by its consumers.
- :class:`DerivedHandle` / :class:`DerivedStream` are what every tier
  *above* the scheduler returns: they hold no state machine of their
  own -- they forward to the handle below, map its result (or each of
  its items), and run a settle hook **exactly once** when the consumer
  first observes the outcome.  The gateway's handles are the base plus
  its settle function; the session's are the base plus a decrypt
  function.

The contract (``tests/core/test_futures.py`` runs it against every
local handle):

- ``result(timeout_s=None)`` blocks for the outcome.  It returns the
  (layer-specific) payload on success, re-raises the failure exception,
  and raises :class:`~repro.errors.DeadlineExceeded` if ``timeout_s``
  elapses first -- *without* sealing anything: the request is still in
  flight and can be polled again or cancelled.  Calling it again
  returns/raises the same outcome.
- ``done()`` is a non-blocking terminal check: ``True`` once the handle
  has a payload, a failure, or a delivered cancellation.
- ``cancel()`` *requests* cancellation and returns whether the request
  was accepted (``False`` once the handle is already terminal).  An
  accepted cancel is a promise: ``result()`` raises
  :class:`~repro.errors.RequestCancelled` even if the work finished in
  the meantime, and the producer releases whatever the request held
  (an enclave execution or stream context) before that error surfaces.
- ``wait(timeout_s)`` blocks like ``result`` but neither consumes nor
  raises; ``cancelled()`` says whether a cancel was accepted.

Streams extend rather than replace the contract: ``result()`` returns
the full item sequence and iterating yields items as they are pushed.

:func:`gather_windowed` is the one sliding-window pipeline both session
transports build ``infer_many`` on.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import (
    Any,
    Callable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.errors import DeadlineExceeded, QueueFull, RequestCancelled


@runtime_checkable
class Future(Protocol):
    """Structural type of every asynchronous result handle (see module docs).

    ``isinstance(x, Future)`` checks method presence only -- the
    semantics are enforced by the contract test, not the type system.
    """

    def result(self, timeout_s: Optional[float] = None) -> Any:
        """Block for the outcome; re-raise its failure; honour ``timeout_s``."""
        ...  # pragma: no cover - protocol

    def done(self) -> bool:
        """Non-blocking: has the handle reached a terminal state?"""
        ...  # pragma: no cover - protocol

    def cancel(self) -> bool:
        """Request cancellation; ``False`` if already terminal."""
        ...  # pragma: no cover - protocol


class OutcomeCell:
    """The one wait/cancel state machine behind every handle.

    Consumers call :meth:`result` / :meth:`done` / :meth:`wait` /
    :meth:`cancel` / :meth:`cancelled` / :meth:`items`; the producer
    calls :meth:`set_result` / :meth:`set_error` / :meth:`set_cancelled`
    / :meth:`push` and polls :meth:`cancel_requested`.  The first
    terminal transition wins; later ones are ignored.
    """

    def __init__(self) -> None:
        self._cv = threading.Condition(threading.Lock())
        self._done = False
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._cancelled = False
        self._items: List[Any] = []
        #: ``time.monotonic()`` at creation
        self.created_at = time.monotonic()

    def _what(self) -> str:
        """What this cell stands for, for error messages."""
        return "request"

    # -- consumer side ---------------------------------------------------------------

    def done(self) -> bool:
        """True once the outcome is sealed (value, failure or cancellation)."""
        return self._done

    def cancelled(self) -> bool:
        """True when a :meth:`cancel` was accepted."""
        return self._cancelled

    def cancel(self) -> bool:
        """Request cancellation; ``False`` when the outcome is already sealed.

        ``True`` guarantees :meth:`result` (and iteration) raises
        :class:`~repro.errors.RequestCancelled`; the producer notices
        through :meth:`cancel_requested` and releases the request's
        resources before delivering it.
        """
        with self._cv:
            if self._done:
                return False
            self._cancelled = True
            return True

    def wait(self, timeout_s: Optional[float] = None) -> bool:
        """Block until the outcome is sealed; ``False`` on timeout.

        Unlike :meth:`result` this neither consumes nor re-raises -- the
        service tier long-polls with it before deciding whether to
        deliver the output or replay a terminal error.
        """
        return self._done or self._wait_for(lambda: self._done, timeout_s)

    def _wait_for(self, ready: Callable[[], bool], timeout_s: Optional[float]) -> bool:
        """Block until ``ready()`` -- the one place a consumer sleeps (a cell
        fed by its consumers overrides it to produce while it waits)."""
        with self._cv:
            return self._cv.wait_for(ready, timeout_s)

    def result(self, timeout_s: Optional[float] = None) -> Any:
        """Block for the value; re-raise the failure.

        ``timeout_s`` follows the repo-wide rule (docs/service.md):
        seconds, ``None`` meaning wait forever,
        :class:`~repro.errors.DeadlineExceeded` on expiry -- which
        leaves the cell pending.
        """
        if not self.wait(timeout_s):
            raise DeadlineExceeded(
                f"{self._what()} not finished within {timeout_s}s"
            )
        if self._error is not None:
            raise self._error
        return self._value

    def items(self) -> Iterator[Any]:
        """Yield pushed items in order, blocking between pushes.

        Ends when the cell is sealed and every item was yielded; a
        failure (or delivered cancellation) raises after the items that
        preceded it.
        """
        items = self._items  # append-only, and sealing is final: no lock to read
        index = 0
        while True:
            if index >= len(items):
                self._wait_for(lambda: index < len(items) or self._done, None)
            if index < len(items):
                yield items[index]
                index += 1
            elif self._error is not None:
                raise self._error
            else:
                return

    # -- producer side ---------------------------------------------------------------

    def cancel_requested(self) -> bool:
        """Has a consumer's :meth:`cancel` been accepted?"""
        return self._cancelled

    def set_result(self, value: Any = None) -> None:
        """Seal the value -- or the promised cancellation, if one was accepted."""
        self._seal(value, None)

    def set_error(self, error: BaseException) -> None:
        """Seal a failure; it re-raises from :meth:`result` and iteration."""
        self._seal(None, error)

    def set_cancelled(self) -> None:
        """Deliver an accepted cancel (its resources are already released)."""
        self._seal(None, RequestCancelled(f"{self._what()} was cancelled"))

    def _seal(self, value: Any, error: Optional[BaseException]) -> None:
        with self._cv:
            if self._done:
                return
            if error is None and self._cancelled:
                error = RequestCancelled(f"{self._what()} was cancelled")
            self._value, self._error = value, error
            self._done = True
            self._cv.notify_all()

    def push(self, item: Any) -> None:
        """Append one streamed item and wake iterating consumers."""
        with self._cv:
            self._items.append(item)
            self._cv.notify_all()


class StreamCell(OutcomeCell):
    """The cell used as a stream: pushed items are the payload.

    ``result()`` is the full item list and iterating yields items as
    they are pushed.
    """

    def result(self, timeout_s: Optional[float] = None) -> List[Any]:
        """Block for the complete item sequence; re-raise any failure."""
        super().result(timeout_s)
        return list(self._items)

    def __iter__(self) -> Iterator[Any]:
        """Yield items in push order, blocking between pushes."""
        return self.items()

    @property
    def token_count(self) -> int:
        """Items delivered so far (grows while the stream is live)."""
        return len(self._items)


#: guards the one-shot flag of every derived handle: taken once per
#: handle lifetime for an attribute swap, so handles need no lock of
#: their own
_SETTLE_LOCK = threading.Lock()


class DerivedHandle:
    """A handle derived from the one below it: forward, map, settle once.

    ``inner`` is the wrapped handle (anything with ``result`` /
    ``done``).  Subclasses override :meth:`_map` to transform the
    result and may define ``_on_settle(error, cancelled)``, which runs
    **exactly once** -- when :meth:`result`, :meth:`cancel` or (for
    streams) iteration first observes the terminal outcome; ``error`` is
    ``None`` on success.  A ``timeout_s`` expiry is not an outcome: it
    raises :class:`~repro.errors.DeadlineExceeded` without settling.
    """

    #: subclasses with routing/accounting state define this as a method
    _on_settle: Optional[Callable[..., None]] = None

    def __init__(self, inner) -> None:
        #: the wrapped handle one tier down
        self.inner = inner
        self._unsettled = True

    def done(self) -> bool:
        """True once the outcome is sealed (successfully or not)."""
        return self.inner.done()

    def wait(self, timeout_s: Optional[float] = None) -> bool:
        """Block until the outcome is sealed; ``False`` on timeout (non-consuming)."""
        return self.inner.wait(timeout_s)

    def cancelled(self) -> bool:
        """True when cancellation was requested and won."""
        return self.inner.cancelled()

    def cancel(self) -> bool:
        """Cancel the request; ``False`` once the outcome is sealed.

        On ``True`` the endpoint scheduler releases the request's
        enclave context (``EC_CLEAR_EXEC_CTX`` / ``EC_STREAM_CLOSE``)
        before :class:`~repro.errors.RequestCancelled` surfaces from
        :meth:`result`.
        """
        accepted = self.inner.cancel()
        if accepted:
            self._settle_once(None, cancelled=True)
        return accepted

    def result(self, timeout_s: Optional[float] = None) -> Any:
        """Block for the mapped result; re-raises the serving failure.

        ``timeout_s`` follows the repo-wide wait rule (seconds,
        ``None`` = wait forever, :class:`~repro.errors.DeadlineExceeded`
        on expiry; docs/service.md).
        """
        try:
            value = self.inner.result(timeout_s)
        except Exception as exc:
            if isinstance(exc, DeadlineExceeded) and not self.inner.done():
                raise  # poll timeout: still in flight, nothing settles
            self._settle_once(exc)
            raise
        self._settle_once(None)
        return self._map(value)

    def _map(self, value: Any) -> Any:
        return value

    def _settle_once(
        self, error: Optional[BaseException], cancelled: bool = False
    ) -> None:
        if self._on_settle is None or not self._unsettled:
            return
        with _SETTLE_LOCK:
            first, self._unsettled = self._unsettled, False
        if first:
            self._on_settle(
                error, cancelled or isinstance(error, RequestCancelled)
            )


class DerivedStream(DerivedHandle):
    """A derived handle over a stream: maps each item, iterates live.

    Subclasses override :meth:`_map_item`; ``result()`` is the mapped
    item list and iterating yields mapped items as the stream below
    produces them.  Iterator exhaustion (or a mid-stream failure)
    settles the handle just like :meth:`result` would.
    """

    @property
    def token_count(self) -> int:
        """Items delivered so far (grows while the stream decodes)."""
        return self.inner.token_count

    def __iter__(self) -> Iterator[Any]:
        items = iter(self.inner)
        index = 0
        while True:
            try:
                item = next(items)
            except StopIteration:
                self._settle_once(None)
                return
            except Exception as exc:
                self._settle_once(exc)
                raise
            yield self._map_item(item, index)
            index += 1

    def _map(self, items: Sequence[Any]) -> List[Any]:
        return [self._map_item(item, index) for index, item in enumerate(items)]

    def _map_item(self, item: Any, index: int) -> Any:
        return item


def gather_windowed(
    submit: Callable[[Any], Future],
    xs: Sequence[Any],
    window_for: Callable[[Future], int],
) -> List[Any]:
    """``submit`` every input, results in input order, bounded in flight.

    The sliding window behind ``infer_many`` on both transports: at most
    ``window_for(first_handle)`` handles are outstanding (the window is
    fixed once the first request is admitted -- only then is the
    admitting host's policy known) and results are collected
    oldest-first.  :class:`~repro.errors.QueueFull` from ``submit``
    drains the oldest in-flight handle and retries, so the batch absorbs
    its own backpressure; with nothing in flight it propagates.

    When anything fails, every handle still in flight is settled --
    cancelled, or its outcome consumed -- before the failure surfaces:
    an abandoned handle would hold its gateway, router and warm-pool
    slots forever.
    """
    results: List[Any] = [None] * len(xs)
    in_flight: deque = deque()  # (input index, handle)
    window = 1

    def collect_oldest() -> None:
        idx, handle = in_flight.popleft()
        results[idx] = handle.result()

    try:
        for idx, x in enumerate(xs):
            while len(in_flight) >= window:
                collect_oldest()
            while True:
                try:
                    handle = submit(x)
                    break
                except QueueFull:
                    if not in_flight:
                        raise
                    collect_oldest()
            in_flight.append((idx, handle))
            if idx == 0:
                window = max(1, window_for(handle))
        while in_flight:
            collect_oldest()
    except BaseException:
        for _, handle in in_flight:
            if not handle.cancel():
                try:
                    handle.result()
                except Exception:  # noqa: BLE001 - the first failure is the one raised
                    pass
        raise
    return results


__all__ = [
    "DerivedHandle",
    "DerivedStream",
    "Future",
    "OutcomeCell",
    "StreamCell",
    "gather_windowed",
]
