"""The metrics registry: labelled counters and gauges.

One :class:`MetricsRegistry` per owner (the cluster monitor, a run
observer). Instruments are created once via the get-or-create accessors
and then updated through plain attribute methods -- no string lookup on
the hot path.

Counters accept negative increments: a few protocol signals are
*net* counts (e.g. transactions currently in doubt, which a late verdict
decrements), and modelling them as two counters everywhere they are read
would push bookkeeping onto every consumer.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.common.errors import ConfigError

__all__ = ["Counter", "Gauge", "MetricsRegistry"]

#: Canonical instrument key: name plus sorted label items.
_Key = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Optional[Dict[str, str]]) -> _Key:
    if not name:
        raise ConfigError("metric name must be non-empty")
    if not labels:
        return (name, ())
    return (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))


class Counter:
    """Monotonic-by-convention event count (negative deltas allowed)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name}{dict(self.labels)}={self.value})"


class Gauge:
    """Last-assigned value (backlogs, node counts, streamed-bytes snapshots)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name}{dict(self.labels)}={self.value})"


class MetricsRegistry:
    """Get-or-create home for a family of instruments.

    The same ``(name, labels)`` pair always returns the same instrument,
    so independent subsystems can share counts without double-registering
    -- the property the monitor/observer wiring relies on to never count
    one hook twice.
    """

    def __init__(self) -> None:
        self._instruments: Dict[_Key, object] = {}

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def _get(self, cls, name: str, labels: Dict[str, str]):
        key = _key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1])
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise ConfigError(
                f"metric {name!r}{dict(key[1])} already registered as "
                f"{type(instrument).__name__}"
            )
        return instrument

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry({len(self._instruments)} instruments)"
