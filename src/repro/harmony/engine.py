"""The Harmony adaptive-consistency engine.

The runtime loop (paper §III-A):

1. the monitoring module supplies read/write arrival rates, the replica
   acknowledgement profile and the key-access profile
   (:class:`~repro.monitor.collector.ClusterMonitor`);
2. :func:`~repro.stale.dcmodel.forecast_stale` turns that snapshot into the
   expected stale-read rate of every candidate read level;
3. the engine selects the **basic level ONE** when its estimate already
   meets the application's tolerated stale rate, "or else, computes the
   number of involved replicas necessary to maintain an acceptable stale
   reads rate" -- the smallest ``r`` whose estimate is within tolerance.

Steps 1-3 run in :class:`~repro.policy.AdaptivePolicy`'s refresh loop, at
most once every ``update_interval`` simulated seconds (the paper's
monitoring period): adaptive behaviour with zero background machinery
inside the simulation. This module supplies step 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.common.errors import ConfigError
from repro.monitor.collector import ClusterMonitor
from repro.policy import AdaptivePolicy
from repro.stale.dcmodel import DeploymentInfo, forecast_stale

__all__ = ["LevelDecision", "HarmonyEngine"]


@dataclass(frozen=True)
class LevelDecision:
    """One adaptation step, kept for post-run analysis."""

    t: float
    read_level: int
    estimates: List[float]  # estimated stale rate per read level 1..rf
    write_rate: float
    read_rate: float


class HarmonyEngine(AdaptivePolicy):
    """Self-adaptive read-consistency policy.

    Parameters
    ----------
    monitor:
        The cluster monitor attached (by the caller) to the target store.
    tolerance:
        Application-tolerated stale-read rate (e.g. ``0.05`` for 5%).
        The paper's experiments use 20%/40% (Grid'5000) and 40%/60% (EC2).
    rf:
        Replication factor of the keyspace Harmony manages.
    write_level:
        Fixed write level (Harmony tunes the *read* side; writes default to
        ONE as in the Harmony/Cassandra deployment).
    update_interval:
        Seconds between decision refreshes.
    deployment:
        When set, estimates use the DC-aware model.
    """

    def __init__(
        self,
        monitor: ClusterMonitor,
        tolerance: float,
        rf: int,
        write_level: int = 1,
        update_interval: float = 1.0,
        deployment: "DeploymentInfo | None" = None,
    ):
        if not (0.0 <= tolerance <= 1.0):
            raise ConfigError(f"tolerance must be in [0, 1], got {tolerance}")
        super().__init__(monitor, rf, write_level, update_interval, deployment)
        self.tolerance = float(tolerance)
        #: optional observer callback ``fn(engine, decision)`` fired after
        #: every refresh -- the observability layer turns these into
        #: "explain" records without ever calling ``read_level`` itself
        #: (which would perturb the decision schedule).
        self.on_decision = None

    @property
    def name(self) -> str:
        return f"harmony({self.tolerance:g})"

    def estimate_all_levels(self, now: float) -> List[float]:
        """Estimated stale rate for each read level ``1..rf`` right now."""
        return forecast_stale(
            self.monitor.snapshot(now), self.rf, self._write_level, self.deployment
        )

    def _decide(self, now: float) -> LevelDecision:
        # One snapshot feeds both the estimates and the recorded rates.
        snapshot = self.monitor.snapshot(now)
        estimates = forecast_stale(snapshot, self.rf, self._write_level, self.deployment)
        chosen = next(
            (r for r, est in enumerate(estimates, start=1) if est <= self.tolerance),
            self.rf,  # strongest, if nothing meets tolerance
        )
        return LevelDecision(
            t=now,
            read_level=chosen,
            estimates=estimates,
            write_rate=snapshot.write_rate,
            read_rate=snapshot.read_rate,
        )
