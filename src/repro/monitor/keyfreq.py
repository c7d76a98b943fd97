"""Sliding key-access frequency tracking (rotating-bucket counters).

The stale-read probability of the *system* is the read-share-weighted
average over keys of the per-key staleness, and per-key staleness depends on
the per-key write rate. This tracker estimates the two ingredients --
per-key read shares and write rates -- over a sliding window with O(live
keys) memory, using the classic two-bucket rotation (no per-event deque).

It also exposes the *effective key count* ``K_eff = 1 / sum(share_i^2)``
(inverse Simpson index): under a uniform workload ``K_eff == K``; under
zipfian skew it is much smaller, which is exactly why skewed workloads read
more stale data at the same aggregate write rate.
"""

from __future__ import annotations

from itertools import repeat
from operator import truediv
from typing import Dict, List, Tuple

from repro.common.errors import ConfigError

__all__ = ["KeyFrequencyTracker"]

#: Keys kept exact at the head of :meth:`KeyFrequencyTracker.collision_profile`;
#: the rest fold into one average pseudo-key.
PROFILE_HEAD = 512


class KeyFrequencyTracker:
    """Per-key read/write counters over a rotating two-bucket window.

    Counts land in the *current* bucket; every ``window`` seconds the
    buckets rotate. Queries merge both buckets, so estimates cover between
    one and two windows of history -- the standard accuracy/memory trade-off.
    """

    def __init__(self, window: float = 10.0):
        if window <= 0:
            raise ConfigError(f"window must be positive, got {window}")
        self.window = float(window)
        self._cur_reads: Dict[str, int] = {}
        self._cur_writes: Dict[str, int] = {}
        self._prev_reads: Dict[str, int] = {}
        self._prev_writes: Dict[str, int] = {}
        self._rotated_at = 0.0

    def _maybe_rotate(self, now: float) -> None:
        gap = now - self._rotated_at
        if gap >= self.window:
            # After two silent windows the outgoing bucket is stale too.
            stale = gap >= 2 * self.window
            self._prev_reads = {} if stale else self._cur_reads
            self._prev_writes = {} if stale else self._cur_writes
            self._cur_reads = {}
            self._cur_writes = {}
            self._rotated_at = now

    def record_read(self, key: str, now: float) -> None:
        """Count one read of ``key`` at simulated time ``now``."""
        self._maybe_rotate(now)
        self._cur_reads[key] = self._cur_reads.get(key, 0) + 1

    def record_write(self, key: str, now: float) -> None:
        """Count one write of ``key`` at simulated time ``now``."""
        self._maybe_rotate(now)
        self._cur_writes[key] = self._cur_writes.get(key, 0) + 1

    # -- queries ---------------------------------------------------------------

    def _merged(self, cur: Dict[str, int], prev: Dict[str, int]) -> Dict[str, int]:
        merged = dict(prev)
        for k, v in cur.items():
            merged[k] = merged.get(k, 0) + v
        return merged

    def read_shares(self) -> Dict[str, float]:
        """Fraction of reads per key over the merged window."""
        merged = self._merged(self._cur_reads, self._prev_reads)
        total = sum(merged.values())
        if total == 0:
            return {}
        return {k: v / total for k, v in merged.items()}

    def write_shares(self) -> Dict[str, float]:
        """Fraction of writes per key over the merged window."""
        merged = self._merged(self._cur_writes, self._prev_writes)
        total = sum(merged.values())
        if total == 0:
            return {}
        return {k: v / total for k, v in merged.items()}

    def collision_profile(self) -> List[Tuple[float, float, int]]:
        """Joint access profile ``[(read_share, write_share, multiplicity)]``.

        Sorted by read share; the head (up to ``PROFILE_HEAD`` keys, which
        dominates staleness under skew) is exact with multiplicity 1, and
        the tail is folded into a single *average* pseudo-key with
        multiplicity = tail size. Estimators evaluate the per-key staleness
        function once per entry and weight by ``read_share * multiplicity``,
        bounding cost on huge keyspaces.
        """
        rc = self._merged(self._cur_reads, self._prev_reads)
        wc = self._merged(self._cur_writes, self._prev_writes)
        rt = sum(rc.values()) or 1
        wt = sum(wc.values()) or 1
        keys = rc.keys() | wc.keys()
        # Sort on the full (read, write) count pair, descending: the order by
        # (read share, write share), as a share is its count over a fixed
        # total. Ordering by reads alone would leave ties in hash-seed set
        # order (the estimator's summation order); tied rows are equal here.
        rows = sorted(
            zip(map(rc.get, keys, repeat(0)), map(wc.get, keys, repeat(0))),
            reverse=True,
        )
        head = [(r / rt, w / wt, 1) for r, w in rows[:PROFILE_HEAD]]
        if len(rows) <= PROFILE_HEAD:
            return head
        tail_r, tail_w = zip(*rows[PROFILE_HEAD:])
        n = len(tail_r)
        tr = sum(map(truediv, tail_r, repeat(rt))) / n
        tw = sum(map(truediv, tail_w, repeat(wt))) / n
        head.append((tr, tw, n))
        return head

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KeyFrequencyTracker(window={self.window}, "
            f"live_keys={len(self._cur_reads) + len(self._cur_writes)})"
        )
