"""E2: consistency impact on monetary cost (§IV-B, first experiment set).

The paper runs the same heavy read-update workload at each static
consistency level on an RF=5, two-AZ deployment and decomposes the bill.
It reports that the bill falls as the level weakens, that QUORUM is always
fresh yet cheaper than ALL, and how few reads at ONE are *estimated* to be
up-to-date (the numbers are in :mod:`repro.experiments.paper`).

:func:`run_cost_eval` measures all of it: one run per symmetric level
(reads and writes at the level, as the paper's level sweep does), billed
over the measurement phase.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.common.tables import Table
from repro.cluster.consistency import ConsistencyLevel, resolve_level
from repro.experiments.paper import ExperimentResult
from repro.experiments.platforms import ec2_cost_platform
from repro.facade import RunSpec, run
from repro.monitor.collector import ClusterMonitor
from repro.policy import StaticPolicy
from repro.stale.dcmodel import forecast_stale

__all__ = ["run_cost_eval", "COST_LEVELS"]

#: The level sweep of the paper's cost experiments (RF=5 deployment):
#: symbolic name -> (read level, write level).
COST_LEVELS: Dict[str, Tuple[object, object]] = {
    "ONE": (1, 1),
    "TWO": (2, 2),
    "QUORUM": (ConsistencyLevel.QUORUM, ConsistencyLevel.QUORUM),
    "FOUR": (4, 4),
    "ALL": (ConsistencyLevel.ALL, ConsistencyLevel.ALL),
}


def run_cost_eval(ops: Optional[int], seed: int) -> ExperimentResult:
    """Sweep the static levels and bill each run's measurement phase.

    Each row is the run's metrics row plus the bill's parts
    (``cost_instance_usd``, ``cost_storage_usd``, ``cost_network_usd``) and
    ``estimated_stale_rate``: the probabilistic model's stale-rate estimate
    for the level, computed from a monitor on the same run -- the quantity
    the paper reports as reads *estimated* to be up-to-date.
    """
    platform = ec2_cost_platform()
    rows: Dict[str, Dict[str, Any]] = {}
    rf = platform.rf
    for name, (read, write) in COST_LEVELS.items():
        captured: Dict[str, ClusterMonitor] = {}

        def factory(store, read=read, write=write, name=name, captured=captured):
            monitor = ClusterMonitor(window=2.0)
            store.observe(monitor)
            captured["monitor"] = monitor
            return StaticPolicy(read, write, name=name)

        out = run(RunSpec(platform=platform, policy=factory, ops=ops, seed=seed))
        snapshot = captured["monitor"].snapshot()
        r_level = resolve_level(read, rf).total
        w_level = resolve_level(write, rf).total
        rows[name] = {
            **out.metrics(),
            "cost_instance_usd": out.bill.instance_cost,
            "cost_storage_usd": out.bill.storage_cost,
            "cost_network_usd": out.bill.network_cost,
            "estimated_stale_rate": forecast_stale(snapshot, rf, w_level)[r_level - 1],
        }

    total_all = rows["ALL"]["cost_total_usd"]
    table = Table(
        f"E2: consistency level vs monetary cost on {platform.name} (RF=5)",
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
    for name, row in rows.items():
        est = row["estimated_stale_rate"]
        total = row["cost_total_usd"]
        table.add_row(
            [
                name,
                round(row["stale_rate_strict"] * 100.0, 1),
                round(est * 100.0, 1),
                round((1.0 - est) * 100.0, 1),
                round(row["throughput_ops_s"], 0),
                round(row["cost_instance_usd"], 6),
                round(row["cost_storage_usd"], 6),
                round(row["cost_network_usd"], 6),
                round(total, 6),
                f"{total / total_all - 1.0:+.0%}" if total_all > 0 else "-",
            ]
        )

    def cut(level: str) -> float:
        return 1.0 - rows[level]["cost_total_usd"] / total_all if total_all > 0 else 0.0

    return ExperimentResult(
        table,
        rows,
        {
            "cost_reduction_one_vs_all": cut("ONE"),
            "cost_reduction_quorum_vs_all": cut("QUORUM"),
            "fresh_reads_at_one_estimated": 1.0 - rows["ONE"]["estimated_stale_rate"],
        },
    )
