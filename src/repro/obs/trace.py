"""Span collection and Chrome trace-event export.

Spans are recorded in the Chrome trace-event format directly (the
`traceEvents` array Perfetto and chrome://tracing consume) rather than an
intermediate model -- every span source in the simulator already knows
its begin/end instants, so there is nothing to reconstruct.

Concurrent operations and transactions overlap freely on the simulated
timeline, so spans use **async** begin/end pairs (``ph: "b"`` / ``"e"``),
which Chrome correlates by ``(cat, id)``. Duration-complete ``"X"``
events on a single track would render overlapping ops as nonsense.
Nested children (per-rank replica acks under a coordinator fan-out,
2PC phases under a transaction) reuse the parent's ``(cat, id)`` -- the
viewer stacks same-key async events by nesting depth. Point-in-time
markers (crashes, partitions, scale events, policy explains) are
instant events (``ph: "i"``) with global scope.

Timestamps are simulated seconds scaled to microseconds (the unit the
format mandates), rounded to whole nanosecond-of-a-microsecond ticks so
serialization never depends on float formatting edge cases.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

__all__ = ["Tracer"]

#: Artifact schema tag, bumped on breaking layout changes.
TRACE_SCHEMA = "repro.trace/1"

#: Cap on stored trace events; overflow is counted in ``Tracer.dropped``.
MAX_EVENTS = 200_000


def _us(t: float) -> float:
    """Simulated seconds -> trace microseconds, on a stable 1e-3 us grid."""
    return round(t * 1e6, 3)


class Tracer:
    """Accumulates trace events; bounded by ``MAX_EVENTS``.

    All record methods are cheap appends of small dicts. The cap exists
    so a long run with tracing on cannot grow memory without bound --
    once hit, further spans are counted in ``dropped`` and the artifact
    says so in its metadata.
    """

    __slots__ = ("_events", "dropped")

    def __init__(self):
        self._events: List[Dict[str, object]] = []
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    def _push(self, event: Dict[str, object]) -> None:
        if len(self._events) >= MAX_EVENTS:
            self.dropped += 1
            return
        self._events.append(event)

    def begin(
        self,
        cat: str,
        span_id: str,
        name: str,
        t: float,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        ev: Dict[str, object] = {
            "ph": "b",
            "cat": cat,
            "id": span_id,
            "name": name,
            "pid": 1,
            "tid": 1,
            "ts": _us(t),
        }
        if args:
            ev["args"] = args
        self._push(ev)

    def end(self, cat: str, span_id: str, name: str, t: float) -> None:
        self._push({
            "ph": "e",
            "cat": cat,
            "id": span_id,
            "name": name,
            "pid": 1,
            "tid": 1,
            "ts": _us(t),
        })

    def span(
        self,
        cat: str,
        span_id: str,
        name: str,
        t_start: float,
        t_end: float,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record a closed begin/end pair in one call."""
        self.begin(cat, span_id, name, t_start, args)
        self.end(cat, span_id, name, t_end)

    def instant(
        self,
        name: str,
        t: float,
        cat: str = "marker",
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        ev: Dict[str, object] = {
            "ph": "i",
            "cat": cat,
            "name": name,
            "pid": 1,
            "tid": 1,
            "ts": _us(t),
            "s": "g",
        }
        if args:
            ev["args"] = args
        self._push(ev)

    def to_chrome(self, meta: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """Full artifact dict: ``traceEvents`` plus schema/run metadata."""
        otherData: Dict[str, object] = {
            "schema": TRACE_SCHEMA,
            "recorded": len(self._events),
            "dropped": self.dropped,
        }
        if meta:
            otherData.update(meta)
        return {
            "traceEvents": list(self._events),
            "displayTimeUnit": "ms",
            "otherData": otherData,
        }

    def to_json(self, meta: Optional[Dict[str, object]] = None) -> str:
        """Deterministic serialization (sorted keys, no wall-clock state)."""
        return json.dumps(self.to_chrome(meta), sort_keys=True, indent=None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer({len(self._events)} events, {self.dropped} dropped)"
