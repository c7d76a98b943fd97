"""The cluster monitor: everything adaptive policies observe.

A :class:`ClusterMonitor` is attached to a store as a listener. It only uses
information a real coordinator-side agent could observe -- operation
completions, acknowledgement delays -- never the oracle's global knowledge
(the oracle exists to *grade* the estimates, not to feed them).

Collected signals:

- aggregate read and write arrival rates (sliding window);
- the per-rank acknowledgement-delay profile of writes: the k-th order
  statistic of replica acks, an observable proxy for the propagation-delay
  structure of Figure 1 (``T`` = rank-w delay, ``Tp`` = rank-N delay);
- per-key access frequencies for the skew correction
  (:class:`~repro.monitor.keyfreq.KeyFrequencyTracker`);
- operation latency EWMAs (used by Bismar's cost estimator).

Transaction verdicts and scale events are not folded here: no policy
reads them, and the run observer counts them from its own hooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.stats import Ewma, OnlineStats, RateEstimator
from repro.cluster.coordinator import OpResult
from repro.monitor.keyfreq import KeyFrequencyTracker

__all__ = ["ClusterMonitor", "MonitorSnapshot"]

#: EWMA halflife (seconds) for latency smoothing.
LATENCY_HALFLIFE = 5.0


@dataclass
class MonitorSnapshot:
    """Frozen view of the monitor, consumed by estimators.

    Attributes
    ----------
    read_rate / write_rate:
        Aggregate arrival rates (ops/sec).
    ack_rank_means:
        Mean acknowledgement delay by replica rank (ascending). Entry ``k``
        is the mean delay until ``k+1`` replicas have acknowledged a write.
    key_profile:
        ``[(read_share, write_share, multiplicity)]`` rows (see
        :meth:`KeyFrequencyTracker.collision_profile`).
    read_latency / write_latency:
        Smoothed client-visible latencies (seconds).
    """

    t: float
    read_rate: float
    write_rate: float
    ack_rank_means: List[float]
    key_profile: List[Tuple[float, float, int]]
    read_latency: float
    write_latency: float

    def replication_factor(self) -> int:
        """Replica count observed from the ack profile (0 before any write)."""
        return len(self.ack_rank_means)

    def propagation_windows(self, write_level: int) -> List[float]:
        """Residual staleness windows ``W_i`` after a level-``w`` commit.

        Per Figure 1: the write is acknowledged at ``T`` (the rank-``w`` ack)
        and replica of rank ``i`` applies at its rank delay; its staleness
        window is ``max(rank_i - T, 0)``. Returned for all ranks (the
        synchronous ranks contribute zero windows).
        """
        if not self.ack_rank_means:
            return []
        w = min(max(write_level, 1), len(self.ack_rank_means))
        t_commit = self.ack_rank_means[w - 1]
        return [max(d - t_commit, 0.0) for d in self.ack_rank_means]


class ClusterMonitor:
    """Store observer aggregating the observable cluster state.

    Parameters
    ----------
    window:
        Sliding-window span (seconds) for rates and key frequencies --
        Harmony's monitoring period.
    """

    def __init__(self, window: float = 10.0):
        if window <= 0:
            raise ConfigError(f"window must be positive, got {window}")
        self.window = float(window)
        self.read_rate = RateEstimator(window=window)
        self.write_rate = RateEstimator(window=window)
        self.keys = KeyFrequencyTracker(window=window)
        self.read_latency = Ewma(halflife=LATENCY_HALFLIFE)
        self.write_latency = Ewma(halflife=LATENCY_HALFLIFE)
        #: per-rank acknowledgement delay statistics (index = rank - 1).
        self._rank_stats: List[OnlineStats] = []
        #: recent-window rank EWMAs react faster than the all-time means.
        self._rank_ewma: List[Ewma] = []
        self._now = 0.0

    # -- listener interface ------------------------------------------------------

    def on_op_complete(self, result: OpResult) -> None:
        """Fold one completed operation into the running estimates."""
        t = result.t_end
        self._now = max(self._now, t)
        if result.kind == "read":
            self.read_rate.record(result.t_start)
            self.keys.record_read(result.key, result.t_start)
            if result.ok:
                self.read_latency.update(result.latency, t=t)
        else:
            self.write_rate.record(result.t_start)
            self.keys.record_write(result.key, result.t_start)
            if result.ok:
                self.write_latency.update(result.latency, t=t)

    def on_write_propagated(self, result: OpResult) -> None:
        """Fold a fully-acknowledged write's ack-delay profile."""
        delays = result.ack_delays
        if not delays:
            return
        if result.level_label == "hint-replay":
            # A replayed hint is a write's *slowest* replica completing long
            # after the fact. Folding its downtime-length delay into rank 0
            # (the fastest-replica estimate) would wreck the profile, so it
            # lands on the tail rank -- and at the replay time, never
            # rewinding the EWMA clocks to the original write's start.
            if not self._rank_stats:
                return
            rank = len(self._rank_stats) - 1
            self._rank_stats[rank].add(delays[-1])
            self._rank_ewma[rank].update(delays[-1], t=result.t_end)
            return
        ordered = sorted(delays)
        while len(self._rank_stats) < len(ordered):
            self._rank_stats.append(OnlineStats())
            self._rank_ewma.append(Ewma(halflife=LATENCY_HALFLIFE))
        for stats, delay in zip(self._rank_stats, ordered):
            stats.add(delay)
        Ewma.update_many(self._rank_ewma, ordered, result.t_start)

    # -- queries --------------------------------------------------------------------

    def ack_rank_means(self, recent: bool = True) -> List[float]:
        """Mean ack delay per rank; ``recent=True`` uses the fast EWMAs."""
        if recent:
            return [e.value for e in self._rank_ewma]
        return [s.mean for s in self._rank_stats]

    def snapshot(self, now: Optional[float] = None) -> MonitorSnapshot:
        """Freeze the current estimates for an estimator run."""
        t = now if now is not None else self._now
        return MonitorSnapshot(
            t=t,
            read_rate=self.read_rate.rate(t),
            write_rate=self.write_rate.rate(t),
            ack_rank_means=self.ack_rank_means(recent=True),
            key_profile=self.keys.collision_profile(),
            read_latency=self.read_latency.value,
            write_latency=self.write_latency.value,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusterMonitor(rr={self.read_rate.rate(self._now):.1f}/s, "
            f"wr={self.write_rate.rate(self._now):.1f}/s)"
        )
