"""The Harmony adaptive-consistency engine.

The runtime loop (paper §III-A):

1. the monitoring module supplies read/write arrival rates, the replica
   acknowledgement profile and the key-access profile
   (:class:`~repro.monitor.collector.ClusterMonitor`);
2. the estimation model computes the expected stale-read rate of every
   candidate read level (:mod:`repro.stale.model`);
3. the engine selects the **basic level ONE** when its estimate already
   meets the application's tolerated stale rate, "or else, computes the
   number of involved replicas necessary to maintain an acceptable stale
   reads rate" -- the smallest ``r`` whose estimate is within tolerance.

Decisions are re-evaluated lazily at most every ``update_interval``
simulated seconds (the paper's monitoring period): adaptive behaviour with
zero background machinery inside the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.common.errors import ConfigError
from repro.cluster.consistency import LevelSpec
from repro.monitor.collector import ClusterMonitor, MonitorSnapshot
from repro.stale.dcmodel import DeploymentInfo, system_stale_rate_dc
from repro.stale.model import params_from_snapshot, system_stale_rate

__all__ = ["LevelDecision", "HarmonyEngine"]


@dataclass(frozen=True)
class LevelDecision:
    """One adaptation step, kept for post-run analysis."""

    t: float
    read_level: int
    estimates: List[float]  # estimated stale rate per read level 1..rf
    write_rate: float
    read_rate: float


class HarmonyEngine:
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
    fallback_window:
        Conservative residual-window estimate used before the monitor has
        observed any write propagation (cold start).
    strict:
        Staleness definition the estimates target: ``True`` (default) is
        the paper's Figure-1 write-start definition, ``False`` the
        committed-acknowledgement definition.
    """

    def __init__(
        self,
        monitor: ClusterMonitor,
        tolerance: float,
        rf: int,
        write_level: int = 1,
        update_interval: float = 1.0,
        fallback_window: float = 0.05,
        strict: bool = True,
        deployment: "DeploymentInfo | None" = None,
    ):
        if not (0.0 <= tolerance <= 1.0):
            raise ConfigError(f"tolerance must be in [0, 1], got {tolerance}")
        if rf < 1:
            raise ConfigError(f"rf must be >= 1, got {rf}")
        if not (1 <= write_level <= rf):
            raise ConfigError(f"write_level {write_level} outside 1..{rf}")
        if update_interval <= 0:
            raise ConfigError(f"update_interval must be positive, got {update_interval}")
        self.monitor = monitor
        self.tolerance = float(tolerance)
        self.rf = int(rf)
        self._write_level = int(write_level)
        self.update_interval = float(update_interval)
        self.fallback_window = float(fallback_window)
        self.strict = bool(strict)
        #: when set, estimates use the DC-aware model (snitch-ordered reads
        #: correlate replica lags; see repro.stale.dcmodel).
        self.deployment = deployment

        self._current = 1
        self._last_update = -float("inf")
        self.decisions: List[LevelDecision] = []
        #: optional observer callback ``fn(engine, decision)`` fired after
        #: every refresh -- the observability layer turns these into
        #: "explain" records without ever calling ``read_level`` itself
        #: (which would perturb the decision schedule).
        self.on_decision = None

    # -- ConsistencyPolicy interface ------------------------------------------------

    @property
    def name(self) -> str:
        return f"harmony({self.tolerance:g})"

    def read_level(self, now: float) -> LevelSpec:
        """Current adaptive read level (refreshing the decision if due)."""
        if now - self._last_update >= self.update_interval:
            self._refresh(now)
        return self._current

    def write_level(self, now: float) -> LevelSpec:
        return self._write_level

    # -- the adaptive consistency module -------------------------------------------

    def estimate_all_levels(self, now: float) -> List[float]:
        """Estimated stale rate for each read level ``1..rf`` right now."""
        return self._estimates(self.monitor.snapshot(now))

    def _estimates(self, snapshot: MonitorSnapshot) -> List[float]:
        if self.deployment is not None and self.strict:
            profile = snapshot.key_profile or [(1.0, 1.0, 1)]
            return [
                system_stale_rate_dc(
                    self.deployment, snapshot.write_rate, profile, r
                )
                for r in range(1, self.rf + 1)
            ]
        params = params_from_snapshot(
            snapshot,
            write_level=self._write_level,
            fallback_rf=self.rf,
            fallback_window=self.fallback_window,
            strict=self.strict,
        )
        if params.rf != self.rf:
            # Ack profile shorter than RF (e.g. nodes down): pad windows with
            # the largest observed window, conservatively.
            windows = list(params.windows)
            pad = max(windows) if windows else self.fallback_window
            while len(windows) < self.rf:
                windows.append(pad)
            params.windows = windows[: self.rf]
            params.rf = self.rf
        return [
            system_stale_rate(params, r, self._write_level)
            for r in range(1, self.rf + 1)
        ]

    def _refresh(self, now: float) -> None:
        self._last_update = now
        # One snapshot feeds both the estimates and the recorded rates.
        snapshot = self.monitor.snapshot(now)
        estimates = self._estimates(snapshot)
        chosen = self.rf  # strongest, if nothing meets tolerance
        for r, est in enumerate(estimates, start=1):
            if est <= self.tolerance:
                chosen = r
                break
        self._current = chosen
        decision = LevelDecision(
            t=now,
            read_level=chosen,
            estimates=estimates,
            write_rate=snapshot.write_rate,
            read_rate=snapshot.read_rate,
        )
        self.decisions.append(decision)
        if self.on_decision is not None:
            self.on_decision(self, decision)

    # -- diagnostics -----------------------------------------------------------------

    def level_time_fractions(self) -> dict:
        """Fraction of decisions spent at each read level (post-run report)."""
        if not self.decisions:
            return {}
        counts: dict = {}
        for d in self.decisions:
            counts[d.read_level] = counts.get(d.read_level, 0) + 1
        total = len(self.decisions)
        return {lvl: c / total for lvl, c in sorted(counts.items())}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HarmonyEngine(tolerance={self.tolerance}, rf={self.rf}, "
            f"current={self._current}, decisions={len(self.decisions)})"
        )
