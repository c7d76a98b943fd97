"""One armed timer for every operation that shares a timeout.

A coordinator arms a timeout per operation and, a millisecond later, the
operation completes and the timeout is dead weight. When every operation
of a kind uses the *same* timeout, deadlines (``start + timeout``) are born
in nondecreasing order, so a FIFO plus a single armed timer does the work
of one timer per operation: nothing to allocate, cancel or leave behind in
the event queue on the common path.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Any, Callable, Deque, Tuple

from repro.runtime.interface import Transport

__all__ = ["DeadlineQueue"]

#: queue length below which done ops behind an open head are never swept
_SWEEP_FLOOR = 16


class DeadlineQueue:
    """FIFO of ``(deadline, op)`` served by at most one transport timer.

    Parameters
    ----------
    transport:
        Supplies the clock and the timer.
    expire:
        ``expire(op)`` is called at exactly ``op``'s deadline if the op is
        still open then; it must mark the op done.
    done_attr:
        Name of the boolean attribute that says an op no longer needs its
        timeout (``finished`` on coordinator ops).

    Callers :meth:`add` each op with ``now + timeout`` and call
    :meth:`settle` after marking one done. FIFO order is valid because the
    clock never goes back and the timeout is one value: raising it mid-run
    keeps deadlines ordered; lowering it with ops in flight delays the
    expiry of the ops queued behind older, later deadlines by at most the
    difference.

    Timeouts fire at the same simulated instant a per-op timer would, in op
    order. The one observable difference is tie-breaking: the armed timer
    takes its sequence number when it is armed, not when the op started, so
    relative to *another* event at the bit-equal float time the order may
    differ from a per-op timer's.
    """

    __slots__ = ("transport", "expire", "_is_done", "_queue", "_timer", "_sweep_at")

    def __init__(
        self,
        transport: Transport,
        expire: Callable[[Any], Any],
        done_attr: str = "finished",
    ):
        self.transport = transport
        self.expire = expire
        self._is_done = attrgetter(done_attr)
        self._queue: Deque[Tuple[float, Any]] = deque()
        # Armed iff the queue is non-empty (outside _fire); its time is never
        # later than the head's deadline.
        self._timer: Any = None
        # Queue length beyond which done ops behind an open head are swept.
        self._sweep_at = _SWEEP_FLOOR

    def __len__(self) -> int:
        return len(self._queue)

    def add(self, deadline: float, op: Any) -> None:
        """Watch ``op`` until ``deadline`` (absolute transport time)."""
        queue = self._queue
        queue.append((deadline, op))
        if self._timer is None:
            self._timer = self.transport.set_timer_at(queue[0][0], self._fire)

    def settle(self) -> None:
        """Forget done ops; disarm when nothing is open.

        Done heads are popped, which keeps the queue about as long as the
        in-flight window. Behind an *open* head (an op stuck until its
        deadline) done ops would otherwise be kept alive for the whole
        timeout, so once they could outnumber the open ones they are swept
        out -- at a length that doubles with the survivors, so amortized
        O(1). Disarming lets a draining run end at the last real event
        instead of idling up to an obsolete deadline.
        """
        queue = self._queue
        is_done = self._is_done
        while queue and is_done(queue[0][1]):
            queue.popleft()
        if not queue:
            self._sweep_at = _SWEEP_FLOOR
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
        elif len(queue) > self._sweep_at:
            open_entries = [entry for entry in queue if not is_done(entry[1])]
            queue.clear()  # in place: _fire may hold a reference
            queue.extend(open_entries)
            self._sweep_at = 2 * len(queue) + _SWEEP_FLOOR

    def _fire(self) -> None:
        self._timer = None
        queue = self._queue
        is_done = self._is_done
        now = self.transport.now
        while queue:
            deadline, op = queue[0]
            if not is_done(op):
                if deadline > now:
                    break
                queue.popleft()  # before expire: its callback may add/settle
                self.expire(op)
            else:
                queue.popleft()
        if queue and self._timer is None:
            self._timer = self.transport.set_timer_at(queue[0][0], self._fire)
