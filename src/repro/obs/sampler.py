"""Periodic time-series snapshots on the simulated clock.

The sampler schedules itself every ``interval`` simulated seconds and
asks a caller-supplied ``collect(now)`` function for a flat JSON-safe
dict, which it stamps into a ``{"type": "sample", "t": ...}`` record.
It owns none of the semantics -- the run observer decides *what* to
snapshot -- it only owns the cadence and the self-termination rules.

Determinism notes: sampler ticks are read-only (the collect function
must not mutate store state, draw randomness, or trigger lazy policy
refreshes), and although each tick consumes a simulator sequence number,
relative ordering between all *other* events is preserved, so the run's
results are identical with sampling on or off. ``max_samples`` bounds
self-perpetuation so the sampler can never keep an otherwise-drained
simulation alive indefinitely.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.errors import ConfigError

__all__ = ["TimeSeriesSampler"]


class TimeSeriesSampler:
    """Re-arming sim event that appends one sample record per tick."""

    __slots__ = ("sim", "interval", "collect", "max_samples", "samples", "_running")

    def __init__(
        self,
        sim,
        interval: float,
        collect: Callable[[float], Dict[str, object]],
        max_samples: int = 20_000,
    ):
        if interval <= 0:
            raise ConfigError(f"sample interval must be > 0, got {interval}")
        if max_samples < 1:
            raise ConfigError(f"max_samples must be >= 1, got {max_samples}")
        self.sim = sim
        self.interval = float(interval)
        self.collect = collect
        self.max_samples = int(max_samples)
        self.samples: List[Dict[str, object]] = []
        self._running = False

    def start(self, at: Optional[float] = None) -> None:
        """Arm the sampler; first tick at ``at`` (default: now + interval)."""
        if self._running:
            return
        self._running = True
        first = at if at is not None else self.sim.now + self.interval
        self.sim.post_at(first, self._tick)

    def stop(self) -> None:
        """Disarm; an already-queued tick becomes a no-op."""
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        record: Dict[str, object] = {"type": "sample", "t": now}
        record.update(self.collect(now))
        self.samples.append(record)
        if len(self.samples) >= self.max_samples:
            self._running = False
            return
        self.sim.post_at(now + self.interval, self._tick)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TimeSeriesSampler(interval={self.interval}, "
            f"{len(self.samples)} samples, running={self._running})"
        )
