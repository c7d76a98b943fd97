"""The Bismar adaptive policy.

At every refresh Bismar evaluates each read level ``1..rf`` on both axes:

- *consistency*: the estimated stale-read rate from the same forecast
  Harmony decides from (:func:`~repro.stale.dcmodel.forecast_stale`);
- *cost*: the expected per-operation cost from the monitor-driven estimator
  (:mod:`repro.cost.estimator`);

and runs at the level with the highest consistency-cost efficiency. An
optional hard staleness cap supports applications that want "efficient, but
never worse than X% stale". The refresh loop itself is
:class:`~repro.policy.AdaptivePolicy`'s; this module supplies the choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.errors import ConfigError
from repro.bismar.efficiency import EfficiencyRow, rank_levels
from repro.cost.estimator import CostEstimator
from repro.monitor.collector import ClusterMonitor
from repro.policy import WRITE_LEVEL, AdaptivePolicy
from repro.stale.dcmodel import DeploymentInfo, forecast_stale

__all__ = ["BismarDecision", "BismarEngine"]


@dataclass(frozen=True)
class BismarDecision:
    """One Bismar adaptation step (kept for post-run analysis)."""

    t: float
    read_level: int
    rows: List[EfficiencyRow]


class BismarEngine(AdaptivePolicy):
    """Cost-efficiency-maximizing consistency policy.

    Parameters
    ----------
    monitor:
        Cluster monitor attached to the target store.
    cost_estimator:
        Per-level cost model (build with
        :meth:`repro.cost.estimator.CostEstimator.for_store`).
    rf:
        Replication factor.
    stale_cap:
        Optional hard bound: levels whose estimated staleness exceeds the
        cap are excluded before the efficiency argmax.
    update_interval:
        Seconds between decision refreshes.
    read_repair_chance:
        The store's read-repair probability, priced by the cost model.
    deployment:
        When set, estimates use the DC-aware model.
    """

    def __init__(
        self,
        monitor: ClusterMonitor,
        cost_estimator: CostEstimator,
        rf: int,
        stale_cap: Optional[float] = None,
        update_interval: float = 1.0,
        read_repair_chance: float = 0.0,
        deployment: "DeploymentInfo | None" = None,
    ):
        if stale_cap is not None and not (0.0 <= stale_cap <= 1.0):
            raise ConfigError(f"stale_cap must be in [0,1], got {stale_cap}")
        super().__init__(monitor, rf, update_interval, deployment)
        self.cost_estimator = cost_estimator
        self.stale_cap = stale_cap
        self.read_repair_chance = float(read_repair_chance)

    @property
    def name(self) -> str:
        cap = f",cap={self.stale_cap:g}" if self.stale_cap is not None else ""
        return f"bismar({cap.lstrip(',')})" if cap else "bismar"

    def evaluate_levels(self, now: float) -> List[EfficiencyRow]:
        """Efficiency table for all read levels at the current cluster state."""
        snapshot = self.monitor.snapshot(now)
        stale = forecast_stale(snapshot, self.rf, WRITE_LEVEL, self.deployment)
        costs = [
            est.total_per_op
            for est in self.cost_estimator.estimate_all(
                snapshot, WRITE_LEVEL, self.read_repair_chance
            )
        ]
        return rank_levels(stale, costs)

    def _decide(self, now: float) -> BismarDecision:
        rows = self.evaluate_levels(now)
        candidates = rows
        if self.stale_cap is not None:
            candidates = [r for r in rows if r.stale_rate <= self.stale_cap] or rows
        return BismarDecision(t=now, read_level=candidates[0].read_level, rows=rows)
