"""Structured run events.

An :class:`ObsEvent` records one discrete run happening -- a crash,
recovery, partition or heal. The failure injector fires them on the
store's ``on_fault`` channel (:meth:`ReplicatedStore.observe
<repro.cluster.store.ReplicatedStore.observe>`).

:class:`EventBus` no longer carries any run's events; only the
``obs.probe_emits_per_s`` probe of ``bench/layers.py`` still times it.
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
