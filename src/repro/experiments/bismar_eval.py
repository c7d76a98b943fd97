"""E3/E4: the efficiency metric samples and the Bismar evaluation (§IV-B).

**E3 (metric samples).** The paper collects efficiency samples "when
running the same workload with different access patterns and different
consistency levels" and finds that the most efficient levels are the
acceptably consistent ones. :func:`run_efficiency_samples` sweeps access
patterns x levels, computes the measured efficiency of each sample, and
marks where the winners sit.

**E4 (Bismar).** The paper: only static ONE costs less than Bismar, at a
high stale-read rate, while Bismar undercuts static QUORUM at a low one.
:func:`run_bismar_eval` reruns that comparison.

The paper's numbers for both are in :mod:`repro.experiments.paper`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.common.tables import Table
from repro.cluster.consistency import ConsistencyLevel
from repro.bismar.efficiency import consistency_cost_efficiency
from repro.experiments.paper import ExperimentResult
from repro.experiments.platforms import grid5000_bismar_platform
from repro.experiments.runner import bismar_factory, static_factory
from repro.facade import RunSpec, run
from repro.workload.client import level_mix
from repro.workload.workloads import WorkloadSpec, heavy_read_update

__all__ = ["run_efficiency_samples", "run_bismar_eval"]


#: The pace of E3's and E4's clients, ops/s. It paces them as YCSB's target
#: parameter does, so every run lasts long enough for the adaptive engines'
#: monitor windows to be meaningful -- unpaced, weak levels finish the
#: scaled op count in well under one monitoring window.
TARGET_THROUGHPUT = 10_000.0


# --------------------------------------------------------------------------- E3

#: E3's symmetric levels: every level of the RF=5 deployment.
LEVELS = (1, 2, 3, 4, 5)


def run_efficiency_samples(ops: Optional[int], seed: int) -> ExperimentResult:
    """Sweep access patterns x read levels; measure cost and staleness.

    Efficiency is computed from *measured* quantities: fresh fraction over
    cost-per-kop normalized within the pattern (exactly how the paper's
    samples are comparable only within a workload). Each row, labelled
    ``"{pattern} n={level}"``, is the run's metrics row plus ``pattern``,
    ``level``, ``relative_cost`` and ``efficiency``; the table marks the
    first most efficient level of each pattern.
    """
    platform = grid5000_bismar_platform()
    rc = platform.default_record_count
    patterns = {
        "zipfian": heavy_read_update(record_count=rc, distribution="zipfian"),
        "uniform": heavy_read_update(record_count=rc, distribution="uniform"),
        "hotspot": WorkloadSpec(
            name="hotspot-heavy",
            read_proportion=0.5,
            update_proportion=0.5,
            record_count=rc,
            distribution="hotspot",
            distribution_kwargs={"hot_set_fraction": 0.05, "hot_opn_fraction": 0.9},
        ),
    }
    rows: Dict[str, Dict[str, Any]] = {}
    for pname, spec in patterns.items():
        group = []
        for lv in LEVELS:
            out = run(
                RunSpec(
                    platform=platform,
                    policy=static_factory(lv, lv, name=f"n={lv}"),
                    workload=spec,
                    ops=ops,
                    seed=seed,
                    target_throughput=TARGET_THROUGHPUT,
                )
            )
            group.append({**out.metrics(), "pattern": pname, "level": f"n={lv}"})
        floor = min(r["cost_per_kop_usd"] for r in group if r["cost_per_kop_usd"] > 0)
        for row in group:
            rel = row["cost_per_kop_usd"] / floor if floor > 0 else 1.0
            row["relative_cost"] = rel
            row["efficiency"] = consistency_cost_efficiency(row["stale_rate_strict"], rel)
            rows[f"{pname} {row['level']}"] = row

    best: Dict[str, Dict[str, Any]] = {}
    for row in rows.values():
        cur = best.get(row["pattern"])
        if cur is None or row["efficiency"] > cur["efficiency"]:
            best[row["pattern"]] = row
    table = Table(
        "E3: consistency-cost efficiency samples "
        "(winner per access pattern marked *)",
        ["pattern", "level", "stale %", "$/kop", "rel cost", "efficiency", "best"],
    )
    for row in rows.values():
        table.add_row(
            [
                row["pattern"],
                row["level"],
                round(row["stale_rate_strict"] * 100.0, 1),
                round(row["cost_per_kop_usd"], 6),
                round(row["relative_cost"], 3),
                round(row["efficiency"], 3),
                "*" if best[row["pattern"]] is row else "",
            ]
        )
    return ExperimentResult(table, rows)


# --------------------------------------------------------------------------- E4

#: The stale-read cap E4's Bismar holds.
STALE_CAP = 0.05


def run_bismar_eval(ops: Optional[int], seed: int) -> ExperimentResult:
    """Run ONE / QUORUM / ALL / Bismar on Grid'5000 and compare bills.

    The clients are paced at :data:`TARGET_THROUGHPUT`.
    """
    platform = grid5000_bismar_platform()
    factories = {
        "ONE": static_factory(1, 1, name="ONE"),
        "QUORUM": static_factory(
            ConsistencyLevel.QUORUM, ConsistencyLevel.QUORUM, name="QUORUM"
        ),
        "ALL": static_factory(ConsistencyLevel.ALL, ConsistencyLevel.ALL, name="ALL"),
        "bismar": bismar_factory(platform.prices, stale_cap=STALE_CAP),
    }
    rows = {
        name: run(
            RunSpec(
                platform=platform, policy=factory, ops=ops, seed=seed,
                target_throughput=TARGET_THROUGHPUT,
            )
        ).metrics()
        for name, factory in factories.items()
    }

    table = Table(
        f"E4: Bismar vs static levels on {platform.name} (RF=5)",
        ["policy", "stale % (fig1)", "thr ops/s", "$/kop", "total $", "read-level mix"],
    )
    for name, row in rows.items():
        table.add_row(
            [
                name,
                round(row["stale_rate_strict"] * 100.0, 2),
                round(row["throughput_ops_s"], 0),
                round(row["cost_per_kop_usd"], 6),
                round(row["cost_total_usd"], 6),
                level_mix(row["read_levels"]),
            ]
        )
    quorum_kop = rows["QUORUM"]["cost_per_kop_usd"]
    bismar_kop = rows["bismar"]["cost_per_kop_usd"]
    return ExperimentResult(
        table,
        rows,
        {
            "cost_reduction_vs_quorum": (
                1.0 - bismar_kop / quorum_kop if quorum_kop > 0 else 0.0
            ),
            "bismar_stale_rate": rows["bismar"]["stale_rate_strict"],
            "one_stale_rate": rows["ONE"]["stale_rate_strict"],
        },
    )
