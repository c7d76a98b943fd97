"""Ground-truth staleness measurement (the paper's Figure 1, mechanized).

Figure 1 defines a stale read: a read starting at ``Xr`` may be stale when
``Xr`` falls between the start of the most recent write ``Xw`` and the end of
that write's propagation to all replicas ``Tp``. The oracle operationalizes
this with *global* knowledge the real system lacks:

- at read start we capture the newest version whose write started at or
  before ``Xr`` (the version a strongly-consistent system would return);
- at read completion the returned version is compared against that capture;
  returning anything older is a **stale read**.

The oracle also measures the per-write full-propagation time ``Tp`` (the
last replica apply), which the experiments report, and counts replica
applies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.stats import OnlineStats
from repro.cluster.versions import NONE_VERSION, Version

__all__ = ["StalenessOracle"]


class StalenessOracle:
    """Global observer of writes, propagation and read freshness."""

    def __init__(self) -> None:
        #: newest *started* write per key (the strict Figure-1 bar).
        self._latest_started: Dict[str, Version] = {}
        #: newest *acknowledged* write per key (the committed bar).
        self._latest_acked: Dict[str, Version] = {}
        #: write_id -> [remaining replica applies (counted down), start time].
        self._pending: Dict[int, List] = {}

        self.reads = 0
        self.stale_reads = 0
        #: stale under the strict Figure-1 definition (bar = write start);
        #: counts in-flight-write races that the committed definition excuses.
        self.stale_reads_strict = 0
        #: seconds by which stale reads lagged the freshest version.
        self.staleness_age = OnlineStats()
        #: per-write total propagation time Tp (max over replicas).
        self.full_propagation = OnlineStats()

    # -- write side ----------------------------------------------------------

    def note_write_start(self, key: str, version: Version, n_replicas: int) -> None:
        """Record that a write started (strict Figure-1 freshness bar)."""
        current = self._latest_started.get(key)
        if current is None or version.newer_than(current):
            self._latest_started[key] = version
        if n_replicas > 0:
            self._pending[version.write_id] = [n_replicas, version.timestamp]

    def note_preload(self, key: str, version: Version) -> None:
        """Record a directly-placed (load-phase) version: both bars at once."""
        self._latest_started[key] = version
        self._latest_acked[key] = version

    def note_write_acked(self, key: str, version: Version) -> None:
        """Record that a write reached its consistency level (committed bar).

        Only acknowledged writes raise the bar reads are judged against:
        a read concurrent with an in-flight write may legally return the old
        value (either outcome is linearizable while the write is pending).
        This is what makes ``r + w > RF`` levels measure exactly 0% stale.
        """
        current = self._latest_acked.get(key)
        if current is None or version.newer_than(current):
            self._latest_acked[key] = version

    def note_replica_applied(self, version: Version, applied_at: float) -> None:
        """Record one replica applying ``version`` at simulated ``applied_at``."""
        entry = self._pending.get(version.write_id)
        if entry is None:
            return
        entry[0] -= 1
        if entry[0] <= 0:
            del self._pending[version.write_id]
            self.full_propagation.add(applied_at - entry[1])

    # -- read side --------------------------------------------------------------

    def expected_version(self, key: str) -> Tuple[Version, Version]:
        """Freshness bars at read start: ``(committed, strict)``.

        ``committed`` is the newest acknowledged write, ``strict`` the newest
        started write (Figure 1's ``Xw``). Must be called exactly at read
        start (the simulator clock is the read's ``Xr``).
        """
        return (
            self._latest_acked.get(key, NONE_VERSION),
            self._latest_started.get(key, NONE_VERSION),
        )

    def note_read(
        self,
        expected: Tuple[Version, Version],
        returned: Optional[Version],
    ) -> bool:
        """Judge one completed read; returns ``True`` iff stale (committed bar)."""
        self.reads += 1
        committed, strict = expected
        got = returned if returned is not None else NONE_VERSION
        stale = committed.newer_than(got)
        if stale:
            self.stale_reads += 1
            self.staleness_age.add(committed.timestamp - got.timestamp)
        if strict.newer_than(got):
            self.stale_reads_strict += 1
        return stale

    def reset_counters(self) -> None:
        """Zero the read/staleness counters, keeping the freshness bars.

        Used at the end of a warmup phase: the data state (and thus the
        bars) must persist, but measurements start fresh.
        """
        self.reads = 0
        self.stale_reads = 0
        self.stale_reads_strict = 0
        self.staleness_age = OnlineStats()
        self.full_propagation = OnlineStats()

    # -- reporting ----------------------------------------------------------------

    @property
    def stale_rate(self) -> float:
        """Fraction of completed reads that returned stale data."""
        return self.stale_reads / self.reads if self.reads else 0.0

    @property
    def stale_rate_strict(self) -> float:
        """Stale fraction under the strict Figure-1 (write-start) definition."""
        return self.stale_reads_strict / self.reads if self.reads else 0.0

    def mean_propagation_time(self) -> float:
        """Measured mean full-propagation time ``Tp`` (0.0 before any write)."""
        return self.full_propagation.mean

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StalenessOracle(reads={self.reads}, stale={self.stale_reads}, "
            f"rate={self.stale_rate:.4f})"
        )
