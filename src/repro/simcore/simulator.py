"""The discrete-event simulator: clock + binary-heap event queue.

Design notes (hpc-parallel idioms):

- the run loop is a tight ``heappop`` + call, with local-variable binding of
  hot attributes; profiling end-to-end store runs shows >80% of wall time in
  user callbacks, not the engine;
- heap entries are plain tuples ordered by ``(time, seq)``, so the heap's
  siftup/siftdown comparisons run entirely in C on float/int pairs (``seq``
  is unique, so slots 3 and 4 are never compared). They come in two
  shapes, told apart by one ``fn is None`` test:

  * ``(time, seq, fn, args)`` -- pushed by :meth:`Simulator.post_at`, which
    returns nothing (deliveries, service completions and client hand-offs
    are never cancelled, so they allocate no :class:`Event`). **Invariant:**
    ``Network.send`` and ``Resource`` push this entry themselves, a frame
    fewer per message and service start (2.8 % of store throughput); change
    them with any change to its shape or tie-break;
  * ``(time, seq, None, event)`` -- pushed by :meth:`Simulator.schedule_at`
    (``schedule`` is its relative form), which returns the cancellable
    :class:`Event` handle. Use it only when the caller keeps the handle;

- the **far tier**: ``post_at`` entries more than ``_FAR`` ahead (crash
  storms, trace arrivals) stay out of the hot heap. One, while none is
  armed, is pushed as the *gate*; entries due at or after it wait in a side
  heap. The firing gate admits the side minimum, with its original
  ``(time, seq)`` key, as the next gate. A gate precedes every side entry, so
  the hot heap's head is the global minimum: the one-heap order, any ``_FAR``;
- cancellation is lazy (flag + skip) so cancelling a timeout that did not
  fire costs O(1);
- the **tie rule**: entries due at a bit-equal time fire in the order they
  were pushed, whoever pushed them (every verb, ``Transport.set_timer_at``,
  the inline pushes, a ``DeadlineQueue`` timer as of when it is armed, a far
  entry under the key ``post_at`` gave it): one sequence counter serves both
  entry shapes. No wall-clock or entropy anywhere in the engine. Code
  outside it schedules through :class:`~repro.runtime.interface.Transport`.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.simcore.events import Event

__all__ = ["Simulator"]

#: ``post_at`` entries due further ahead than this (seconds) go to the far tier.
_FAR = 1.0


class Simulator:
    """A simulated clock with an ordered callback queue.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.post_at(2.0, fired.append, "b")
    >>> handle = sim.schedule(1.0, fired.append, "a")
    >>> sim.run()
    >>> fired
    ['a', 'b']
    >>> sim.now
    2.0
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Optional[Callable[..., Any]], Any]] = []
        self._far: List[Tuple[float, int, Callable[..., Any], Any]] = []  # side heap
        self._gate: Optional[float] = None  # the armed far entry's time
        self._seq: int = 0
        self._running = False
        self._stop_requested = False
        self.events_processed: int = 0

    def stop(self) -> None:
        """Request the current :meth:`run` to return after the current event.

        Safe to call from inside an event callback (that is its purpose:
        "the workload is finished, stop simulating background chatter").
        """
        self._stop_requested = True

    # -- scheduling -----------------------------------------------------------

    def post_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated time ``time``; no handle."""
        now = self.now
        if time < now:
            raise SimulationError(f"cannot schedule at t={time} < now={now}")
        self._seq = seq = self._seq + 1
        if time <= now + _FAR:
            heapq.heappush(self._heap, (time, seq, fn, args))
        elif self._gate is None:
            self._gate = time
            heapq.heappush(self._heap, (time, seq, self._open_gate, (fn, args)))
        else:
            far = self._far if time >= self._gate else self._heap
            heapq.heappush(far, (time, seq, fn, args))

    def _open_gate(self, fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        """The armed far entry fires: admit the next one as the gate, then run."""
        self._gate = None
        if self._far:
            entry = heapq.heappop(self._far)  # (time, seq, fn, args)
            self._gate = entry[0]
            heapq.heappush(self._heap, entry[:2] + (self._open_gate, entry[2:]))
        fn(*args)

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """:meth:`schedule_at` ``now + delay``: the one relative convenience."""
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated time ``time``.

        Returns the cancellable :class:`Event` handle; callers that would
        discard it use :meth:`post_at`. Scheduling into the past is a harness
        bug and raises :class:`~repro.common.errors.SimulationError`.
        """
        if time < self.now:
            raise SimulationError(f"cannot schedule at t={time} < now={self.now}")
        self._seq = seq = self._seq + 1
        ev = Event(time, seq, fn, args)
        heapq.heappush(self._heap, (time, seq, None, ev))
        return ev

    # -- execution ------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        When ``until`` is given and no entry due by it is left (a spent
        ``max_events`` budget can leave some), the clock is advanced to
        ``until`` (matching how a real system would idle).
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        self._stop_requested = False
        try:
            heap = self._heap
            heappop = heapq.heappop
            budget = max_events if max_events is not None else -1
            while heap and not self._stop_requested:
                time, _, fn, args = heap[0]
                if fn is None and args.cancelled:
                    heappop(heap)
                    continue
                if until is not None and time > until:
                    break
                if budget == 0:
                    break
                heappop(heap)
                self.now = time
                if fn is None:
                    ev = args
                    fn, args = ev.fn, ev.args
                    ev.fn = None  # break cycles; callers may retain the handle
                    ev.args = ()
                self.events_processed += 1
                fn(*args)
                if budget > 0:
                    budget -= 1
            if (
                until is not None
                and self.now < until
                and not self._stop_requested
                and (not heap or heap[0][0] > until)
            ):
                self.now = until
        finally:
            self._running = False

    # -- introspection ---------------------------------------------------------

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue (a heap scan)."""
        heap = self._heap
        live = sum(1 for _, _, fn, ev in heap if fn is not None or not ev.cancelled)
        return live + len(self._far)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Simulator(now={self.now:.6f}, pending={self.pending()}, "
            f"processed={self.events_processed})"
        )
