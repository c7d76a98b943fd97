"""Periodic time-series snapshots on the deployment clock.

The sampler schedules itself every ``interval`` seconds of its transport's
clock (:attr:`Transport.now` / :meth:`Transport.post_at`) and
asks a caller-supplied ``collect(now)`` function for a flat JSON-safe
dict, which it stamps into a ``{"type": "sample", "t": ...}`` record.
It owns none of the semantics -- the run observer decides *what* to
snapshot -- it only owns the cadence and the self-termination rules.

Determinism notes: sampler ticks are read-only (the collect function
must not mutate store state, draw randomness, or trigger lazy policy
refreshes), and although each tick consumes a simulator sequence number,
relative ordering between all *other* events is preserved, so the run's
results are identical with sampling on or off. ``MAX_SAMPLES`` bounds
self-perpetuation so the sampler can never keep an otherwise-drained
simulation alive indefinitely.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.common.errors import ConfigError

__all__ = ["TimeSeriesSampler"]

#: Hard cap on samples per run (bounds memory and self-perpetuation).
MAX_SAMPLES = 20_000


class TimeSeriesSampler:
    """Re-arming timer that appends one sample record per tick."""

    __slots__ = ("tr", "interval", "collect", "samples", "_running")

    def __init__(
        self, tr, interval: float, collect: Callable[[float], Dict[str, object]]
    ):
        if interval <= 0:
            raise ConfigError(f"sample interval must be > 0, got {interval}")
        self.tr = tr
        self.interval = float(interval)
        self.collect = collect
        self.samples: List[Dict[str, object]] = []
        self._running = False

    def start(self) -> None:
        """Arm the sampler; first tick one interval from now."""
        if self._running:
            return
        self._running = True
        self.tr.post_at(self.tr.now + self.interval, self._tick)

    def stop(self) -> None:
        """Disarm; an already-queued tick becomes a no-op."""
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.tr.now
        record: Dict[str, object] = {"type": "sample", "t": now}
        record.update(self.collect(now))
        self.samples.append(record)
        if len(self.samples) >= MAX_SAMPLES:
            self._running = False
            return
        self.tr.post_at(now + self.interval, self._tick)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TimeSeriesSampler(interval={self.interval}, "
            f"{len(self.samples)} samples, running={self._running})"
        )
