"""The metrics registry: get-or-create counters by name.

One :class:`MetricsRegistry` per owner (the cluster monitor, a run
observer). Counters are created once via :meth:`MetricsRegistry.counter`
and then updated through plain attribute methods -- no string lookup on
the hot path.

Counters accept negative increments: a few protocol signals are
*net* counts (e.g. transactions currently in doubt, which a late verdict
decrements), and modelling them as two counters everywhere they are read
would push bookkeeping onto every consumer.
"""

from __future__ import annotations

from typing import Dict

from repro.common.errors import ConfigError

__all__ = ["Counter", "MetricsRegistry"]


class Counter:
    """Monotonic-by-convention event count (negative deltas allowed)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name}={self.value})"


class MetricsRegistry:
    """Get-or-create home for a family of counters.

    The same name always returns the same counter, so independent
    subsystems can share counts without double-registering -- the property
    the monitor/observer wiring relies on to never count one hook twice.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            if not name:
                raise ConfigError("metric name must be non-empty")
            counter = self._counters[name] = Counter(name)
        return counter

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry({len(self._counters)} counters)"
