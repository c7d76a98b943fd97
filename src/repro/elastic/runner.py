"""The elastic axis of a run: *capacity over time*.

An :class:`ElasticSpec` describes what changes during the run -- scripted
membership events, an autoscaler, a time-varying offered-load schedule.
:func:`repro.run` attaches it to the deployment (``RunSpec.elastic``) and
the resulting :class:`~repro.workload.client.RunReport` carries an
``elastic`` block (scale events, ranges moved, bytes streamed, autoscaler
decisions) next to the usual throughput/latency/staleness metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.elastic.autoscale import AutoscalerConfig, CostAwareAutoscaler
from repro.elastic.rebalance import RebalanceConfig, StreamingRebalancer
from repro.workload.client import WorkloadRunner

__all__ = ["ElasticSpec"]

#: A membership script receives the run's rebalancer and schedules its
#: bootstrap / decommission calls on the simulation clock (times relative to
#: run start).
ElasticScript = Callable[[StreamingRebalancer], None]


@dataclass(frozen=True)
class ElasticSpec:
    """What changes about capacity and load during an elastic run.

    Attributes
    ----------
    script:
        Schedules scripted membership events (``None`` = none).
    autoscaler:
        Enables the cost-aware autoscaler with these tunables
        (``None`` = no autoscaler).
    rebalance:
        Streaming tunables for the migrations.
    pacing_schedule:
        ``(t, total_ops_per_sec)`` points: at time ``t`` the offered load is
        re-paced to that rate (the diurnal shape). Applies on top of the
        run's initial ``target_throughput``.
    """

    script: Optional[ElasticScript] = None
    autoscaler: Optional[AutoscalerConfig] = None
    rebalance: RebalanceConfig = field(default_factory=RebalanceConfig)
    pacing_schedule: Tuple[Tuple[float, float], ...] = ()


def _repace(runner: WorkloadRunner, total_rate: float) -> None:
    """Apply one pacing-schedule point: split the total rate over clients.

    The split is weighted by each unit's ``weight`` (1 for a closed-loop
    client, the member count for a cohort), so per-client and cohort runs
    see the same aggregate offered load at every schedule point.
    """
    live = [c for c in runner.clients if c.remaining > 0]
    if not live:
        return
    total_weight = sum(c.weight for c in live)
    for client in live:
        share = (
            total_rate * client.weight / total_weight if total_rate > 0 else None
        )
        client.set_rate(share)


def _elastic_block(
    rebalancer: StreamingRebalancer, autoscaler: Optional[CostAwareAutoscaler]
) -> Dict[str, Any]:
    """The report's ``elastic`` dict (JSON-safe, deterministic ordering)."""
    block = rebalancer.summary()
    if autoscaler is not None:
        block["autoscaler"] = autoscaler.summary()
    return block
