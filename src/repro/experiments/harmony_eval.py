"""E1: Harmony performance/staleness evaluation (§IV-A).

The paper compares Harmony at two tolerated stale-read rates against static
eventual (ONE) and strong (ALL) consistency, on Grid'5000 (tolerances 20%
and 40%) and EC2 (40% and 60%), under a heavy read-update YCSB workload,
and reports two headline ratios: Harmony's stale-read cut against eventual
and its throughput gain over strong (the numbers are in
:mod:`repro.experiments.paper`).

:func:`run_harmony_eval` regenerates those rows on a platform preset and
computes both headline ratios from the measured data.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.common.tables import Table
from repro.cluster.consistency import ConsistencyLevel
from repro.experiments.paper import ExperimentResult
from repro.experiments.platforms import Platform
from repro.experiments.runner import harmony_factory, static_factory
from repro.facade import RunSpec, run
from repro.workload.client import level_mix
from repro.workload.workloads import WorkloadSpec

__all__ = ["run_harmony_eval"]


def run_harmony_eval(
    platform: Platform,
    tolerances: Sequence[float],
    spec: Optional[WorkloadSpec],
    ops: Optional[int],
    seed: int,
) -> ExperimentResult:
    """Run eventual / Harmony(each tolerance) / strong and compare.

    ``spec`` ``None`` runs the platform's default workload.
    """
    factories = {"eventual": static_factory(1, 1, name="eventual")}
    for tol in tolerances:
        factories[f"harmony({tol:g})"] = harmony_factory(tol)
    factories["strong"] = static_factory(
        ConsistencyLevel.ALL, ConsistencyLevel.ALL, name="strong"
    )
    rows = {
        name: run(
            RunSpec(platform=platform, policy=factory, workload=spec, ops=ops, seed=seed)
        ).metrics()
        for name, factory in factories.items()
    }

    eventual = rows["eventual"]
    strong = rows["strong"]
    harmony_rows = [row for name, row in rows.items() if name.startswith("harmony")]
    if eventual["stale_rate_strict"] > 0:
        stale_cut = max(
            1.0 - row["stale_rate_strict"] / eventual["stale_rate_strict"]
            for row in harmony_rows
        )
    else:
        stale_cut = 0.0
    if strong["throughput_ops_s"] > 0:
        thr_gain = max(
            row["throughput_ops_s"] / strong["throughput_ops_s"] - 1.0
            for row in harmony_rows
        )
    else:
        thr_gain = 0.0

    table = Table(
        f"E1: Harmony vs static consistency on {platform.name} (heavy read-update)",
        [
            "policy",
            "throughput ops/s",
            "read mean ms",
            "read p99 ms",
            "stale % (fig1)",
            "stale % (committed)",
            "read-level mix",
        ],
    )
    for name, row in rows.items():
        table.add_row(
            [
                name,
                round(row["throughput_ops_s"], 0),
                round(row["read_latency_mean_ms"], 2),
                round(row["read_latency_p99_ms"], 2),
                round(row["stale_rate_strict"] * 100.0, 2),
                round(row["stale_rate"] * 100.0, 2),
                level_mix(row["read_levels"]),
            ]
        )
    return ExperimentResult(
        table,
        rows,
        {
            "stale_reduction_vs_eventual": stale_cut,
            "throughput_gain_vs_strong": thr_gain,
        },
    )
