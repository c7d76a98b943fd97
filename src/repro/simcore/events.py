"""Cancellable event handles for the discrete-event engine.

An :class:`Event` is what :meth:`Simulator.schedule_at` hands back to a
caller that may want to cancel. Ordering lives in the simulator's heap tuples
(``(time, seq, ...)``), not here; callbacks nobody cancels go through
:meth:`Simulator.post_at` and never allocate one.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

__all__ = ["Event"]


class Event:
    """A scheduled callback that can be cancelled before it fires.

    Do not construct directly; use :meth:`repro.simcore.Simulator.schedule_at`.
    Cancellation is lazy: :meth:`cancel` marks the event and the simulator
    skips it when popped (O(1) cancel, no heap surgery).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Optional[Callable[..., Any]],
        args: Tuple[Any, ...] = (),
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent this event from firing (harmless if it already fired)."""
        self.cancelled = True
        # Drop references eagerly so cancelled events do not pin payloads
        # (messages, closures) in memory until they surface from the heap.
        self.fn = None
        self.args = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"Event(t={self.time:.6f}, seq={self.seq}, fn={name}, {state})"
