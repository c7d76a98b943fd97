"""Structured run events and the bus that carries them.

The bus is the one channel for discrete run happenings -- crashes,
recoveries, partitions, heals, scale events, level switches. Emitters
(the failure injector, the run observer) publish :class:`ObsEvent`
records; subscribers receive them synchronously in emission order.

``emit`` is called from simulation callbacks, so the no-subscriber case
must cost one attribute load and one truthiness check -- nothing is
allocated and nothing is formatted unless somebody is listening.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

__all__ = ["EventBus", "ObsEvent"]


class ObsEvent:
    """One structured run event at simulated time ``t``.

    ``kind`` is a short machine-readable tag ("node-crash", "partition",
    "scale-out", "level-switch", ...); ``data`` holds the kind-specific
    payload with JSON-safe values only.
    """

    __slots__ = ("t", "kind", "data")

    def __init__(self, t: float, kind: str, data: Optional[Dict[str, object]] = None):
        self.t = t
        self.kind = kind
        self.data = data if data is not None else {}

    def to_record(self) -> Dict[str, object]:
        """Flat JSON-safe dict (``type``/``t``/``kind`` + payload keys)."""
        rec: Dict[str, object] = {"type": "event", "t": self.t, "kind": self.kind}
        for k, v in self.data.items():
            rec[k] = v
        return rec

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ObsEvent(t={self.t:.6g}, kind={self.kind!r}, data={self.data})"


class EventBus:
    """Synchronous fan-out of :class:`ObsEvent` to subscribers.

    Subscribers are plain callables ``fn(event)`` invoked in subscription
    order. With no subscribers, ``emit`` is a single ``if not`` on an
    empty list -- the zero-overhead contract for disabled observability.
    """

    __slots__ = ("_subscribers",)

    def __init__(self) -> None:
        self._subscribers: List[Callable[[ObsEvent], None]] = []

    def subscribe(self, fn: Callable[[ObsEvent], None]) -> None:
        self._subscribers.append(fn)

    @property
    def active(self) -> bool:
        """True when at least one subscriber is attached."""
        return bool(self._subscribers)

    def emit(self, event: ObsEvent) -> None:
        subs = self._subscribers
        if not subs:
            return
        for fn in subs:
            fn(event)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventBus({len(self._subscribers)} subscribers)"
