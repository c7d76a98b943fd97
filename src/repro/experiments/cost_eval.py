"""E2: consistency impact on monetary cost (§IV-B, first experiment set).

The paper runs the same heavy read-update workload at each static
consistency level on an RF=5, two-AZ deployment and decomposes the bill.
Reported shape:

- "the total monetary cost decreases when degrading the consistency level
  ... down to 48% of cost reduction with weaker consistency";
- "only 21% of reads are estimated to be up-to-date when the consistency
  level is the lowest (level ONE)";
- "level Quorum ... returns always an up-to-date replica ... but reduces
  the cost of the strong consistency level by 13%".

:func:`run_cost_eval` measures all of it: one run per symmetric level
(reads and writes at the level, as the paper's level sweep does), billed
over the measurement phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.tables import Table
from repro.cluster.consistency import ConsistencyLevel, resolve_level
from repro.cost.billing import Bill
from repro.experiments.platforms import Platform
from repro.facade import RunSpec, run
from repro.monitor.collector import ClusterMonitor
from repro.policy import StaticPolicy
from repro.stale.dcmodel import forecast_stale
from repro.workload.client import RunReport
from repro.workload.workloads import WorkloadSpec

__all__ = ["CostEvalResult", "run_cost_eval", "COST_LEVELS"]

#: The level sweep of the paper's cost experiments (RF=5 deployment):
#: symbolic name -> (read level, write level).
COST_LEVELS: Dict[str, Tuple[object, object]] = {
    "ONE": (1, 1),
    "TWO": (2, 2),
    "QUORUM": (ConsistencyLevel.QUORUM, ConsistencyLevel.QUORUM),
    "FOUR": (4, 4),
    "ALL": (ConsistencyLevel.ALL, ConsistencyLevel.ALL),
}


@dataclass
class CostEvalResult:
    """Per-level reports and bills plus the headline cost ratios.

    ``estimated_stale`` holds the probabilistic model's per-level stale-rate
    estimate computed from the run's own monitor -- the quantity the paper
    reports when it says "only 21% of reads are *estimated* to be
    up-to-date" at level ONE.
    """

    platform: str
    reports: Dict[str, RunReport]
    bills: Dict[str, Bill]
    estimated_stale: Dict[str, float]
    cost_reduction_one_vs_all: float
    cost_reduction_quorum_vs_all: float
    fresh_reads_at_one_estimated: float

    def table(self) -> Table:
        """The per-level bill decomposition table."""
        t = Table(
            f"E2: consistency level vs monetary cost on {self.platform} (RF=5)",
            [
                "level",
                "stale % (fig1)",
                "est stale %",
                "est fresh %",
                "thr ops/s",
                "instances $",
                "storage $",
                "network $",
                "total $",
                "vs ALL",
            ],
        )
        total_all = self.bills["ALL"].total
        for name in self.reports:
            rep, bill = self.reports[name], self.bills[name]
            est = self.estimated_stale.get(name, 0.0)
            t.add_row(
                [
                    name,
                    round(rep.stale_rate_strict * 100.0, 1),
                    round(est * 100.0, 1),
                    round((1.0 - est) * 100.0, 1),
                    round(rep.throughput, 0),
                    round(bill.instance_cost, 6),
                    round(bill.storage_cost, 6),
                    round(bill.network_cost, 6),
                    round(bill.total, 6),
                    f"{bill.total / total_all - 1.0:+.0%}" if total_all > 0 else "-",
                ]
            )
        return t

    def claims(self) -> List[str]:
        """Measured versions of the paper's three cost claims."""
        return [
            f"cost reduction ONE vs ALL: {self.cost_reduction_one_vs_all:.0%} "
            "(paper: down to 48%)",
            f"cost reduction QUORUM vs ALL: {self.cost_reduction_quorum_vs_all:.0%} "
            "(paper: 13%)",
            f"estimated fresh reads at ONE: {self.fresh_reads_at_one_estimated:.0%} "
            "(paper: 21% estimated up-to-date)",
        ]


def run_cost_eval(
    platform: Platform,
    spec: Optional[WorkloadSpec] = None,
    ops: Optional[int] = None,
    seed: int = 11,
) -> CostEvalResult:
    """Sweep the static levels and bill each run's measurement phase.

    Each run carries a monitor so the model's *estimated* staleness per
    level (the paper's reported quantity) can be computed from the same
    observable state the adaptive engines would see.
    """
    reports: Dict[str, RunReport] = {}
    bills: Dict[str, Bill] = {}
    estimated: Dict[str, float] = {}
    rf = platform.rf
    for name, (read, write) in COST_LEVELS.items():
        captured: Dict[str, ClusterMonitor] = {}

        def factory(store, read=read, write=write, name=name, captured=captured):
            monitor = ClusterMonitor(window=2.0)
            store.add_listener(monitor)
            captured["monitor"] = monitor
            return StaticPolicy(read, write, name=name)

        out = run(
            RunSpec(platform=platform, policy=factory, workload=spec, ops=ops, seed=seed)
        )
        reports[name] = out.report
        bills[name] = out.bill

        monitor = captured["monitor"]
        snapshot = monitor.snapshot()
        r_level = resolve_level(read, rf).total
        w_level = resolve_level(write, rf).total
        estimated[name] = forecast_stale(snapshot, rf, w_level)[r_level - 1]

    total_all = bills["ALL"].total
    one_cut = 1.0 - bills["ONE"].total / total_all if total_all > 0 else 0.0
    quorum_cut = 1.0 - bills["QUORUM"].total / total_all if total_all > 0 else 0.0
    return CostEvalResult(
        platform=platform.name,
        reports=reports,
        bills=bills,
        estimated_stale=estimated,
        cost_reduction_one_vs_all=one_cut,
        cost_reduction_quorum_vs_all=quorum_cut,
        fresh_reads_at_one_estimated=1.0 - estimated["ONE"],
    )
