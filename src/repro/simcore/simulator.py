"""The discrete-event simulator: clock + binary-heap event queue.

Design notes (hpc-parallel idioms):

- the run loop is a tight ``heappop`` + call, with local-variable binding of
  hot attributes; profiling end-to-end store runs shows >80% of wall time in
  user callbacks, not the engine;
- heap entries are plain tuples ordered by ``(time, seq)``, so the heap's
  siftup/siftdown comparisons run entirely in C on float/int pairs (``seq``
  is unique, so slots 3 and 4 are never compared). They come in two
  shapes, told apart by one ``fn is None`` test:

  * ``(time, seq, fn, args)`` -- pushed by :meth:`Simulator.post` /
    :meth:`Simulator.post_at`, which return nothing. Message deliveries,
    service completions and client hand-offs are never cancelled, so they
    allocate no :class:`Event`. **Invariant:** ``Network.send`` and
    ``Resource`` push this entry themselves (``post``'s body, same
    ``_seq``); change them with any change to its shape or tie-break;
  * ``(time, seq, None, event)`` -- pushed by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`, which return the cancellable
    :class:`Event` handle. Use these only when the caller keeps the handle;

- the **far tier**: ``post_at`` entries more than ``_FAR`` ahead (crash
  storms, trace arrivals) stay out of the hot heap. One, while none is
  armed, is pushed as the *gate*; entries due at or after it wait in a side
  heap. The firing gate admits the side minimum, with its original
  ``(time, seq)`` key, as the next gate. A gate precedes every side entry, so
  the hot heap's head is the global minimum: the one-heap order, any ``_FAR``;
- cancellation is lazy (flag + skip) so cancelling a timeout that did not
  fire costs O(1); the engine counts the cancelled entries still in the
  heap, so ``pending()`` is O(1) without a counter on every push and pop;
- determinism: equal-time events fire in scheduling order via one sequence
  counter shared by both entry shapes; no wall-clock or entropy anywhere in
  the engine.
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
    >>> sim.post(2.0, fired.append, "b")
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
        self._cancelled: int = 0  # cancelled Events still in the heap
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

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` simulated seconds from now; no handle.

        The hottest entry point of the engine (every message hop and service
        completion lands here): one tuple, one heap push. Ordering, the
        ``pending()`` count and the negative-delay check are exactly those
        of :meth:`schedule`; what is given up is the ability to cancel.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (self.now + delay, seq, fn, args))

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
        """Schedule ``fn(*args)`` to run ``delay`` simulated seconds from now.

        Returns the :class:`Event` handle (cancellable); callers that would
        discard it use :meth:`post`. ``delay`` must be non-negative;
        scheduling into the past is a harness bug and raises
        :class:`~repro.common.errors.SimulationError`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        # Same body as schedule_at, inlined: protocol timers land here by
        # the million and the extra call layer is measurable.
        self._seq = seq = self._seq + 1
        time = self.now + delay
        ev = Event(time, seq, fn, args, owner=self)
        heapq.heappush(self._heap, (time, seq, None, ev))
        return ev

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} < now={self.now}"
            )
        self._seq = seq = self._seq + 1
        ev = Event(time, seq, fn, args, owner=self)
        heapq.heappush(self._heap, (time, seq, None, ev))
        return ev

    # -- execution ------------------------------------------------------------

    def step(self) -> bool:
        """Fire the next pending event. Returns ``False`` if the queue is empty."""
        heap = self._heap
        while heap:
            time, _, fn, args = heapq.heappop(heap)
            if fn is None:
                ev = args
                if ev.cancelled:
                    self._cancelled -= 1
                    continue
                fn, args = ev.fn, ev.args
                ev.fn = None
                ev.args = ()
                ev.live = False
            self.now = time
            self.events_processed += 1
            fn(*args)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        When ``until`` is given and the queue drains earlier, the clock is
        advanced to ``until`` (matching how a real system would idle).
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
                    self._cancelled -= 1
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
                    ev.live = False
                self.events_processed += 1
                fn(*args)
                if budget > 0:
                    budget -= 1
            if until is not None and self.now < until and not self._stop_requested:
                self.now = until
        finally:
            self._running = False

    # -- introspection ---------------------------------------------------------

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue.

        O(1): the heap's length less the cancelled entries still in it (the
        engine counts those at cancel and at pop), so monitors can poll this
        every tick without paying a heap scan.
        """
        return len(self._heap) + len(self._far) - self._cancelled

    def peek_time(self) -> Optional[float]:
        """Firing time of the next live event, or ``None`` if idle."""
        heap = self._heap
        while heap and heap[0][2] is None and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero."""
        if self._running:
            raise SimulationError("cannot reset a running simulator")
        self.now = 0.0
        for _, _, fn, ev in self._heap:
            if fn is None:
                ev.live = False
                ev.owner = None
        self._heap.clear()
        self._far.clear()
        self._gate = None
        self._seq = 0
        self._cancelled = 0
        self.events_processed = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Simulator(now={self.now:.6f}, pending={self.pending()}, "
            f"processed={self.events_processed})"
        )
