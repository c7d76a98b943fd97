#!/usr/bin/env python
"""Diurnal autoscaling: adaptive consistency while capacity is changing.

The question the elastic subsystem exists to answer: how does adaptive
consistency behave while the cluster itself is growing and shrinking?

The script drives the same diurnal load shape -- off-peak, a ~7x peak,
then off-peak again -- against a deliberately tight two-availability-zone
cluster (4 thin nodes, RF=3 split 2+1) whose cost-aware autoscaler
bootstraps nodes into the peak and decommissions them after it. Every
membership change streams its token ranges over the simulated network
while the flash-crowd workload keeps hammering a 2% hot key set. Three
consistency policies ride through the identical scale events:

- eventual (ONE/ONE): fastest, pays for the inter-AZ staleness window;
- Harmony at a 1% tolerance: re-dials the read level as capacity and load
  move under it;
- strong (ALL/ALL): always fresh, pays with latency -- and its ALL fan-out
  grows with every bootstrapped node.

The scale-out itself never manufactures staleness: while a range migrates,
reads consult the old owners and writes land on both sides of the
hand-off. What differs is how each policy spends the staleness budget.

Run:  python examples/diurnal_autoscale.py
"""

from repro import (
    AutoscalerConfig,
    ElasticSpec,
    RebalanceConfig,
    RunSpec,
    run,
)
from repro.cluster.replication import NetworkTopologyStrategy
from repro.cluster.store import StoreConfig
from repro.common.tables import Table
from repro.cost.pricing import EC2_US_EAST_2013
from repro.experiments.platforms import Platform, _ec2_latencies
from repro.experiments.runner import named_policy_factory
from repro.net.topology import Datacenter, Topology
from repro.workload.client import level_mix
from repro.workload.workloads import flash_crowd


def tight_two_az_platform() -> Platform:
    """4 thin VMs over two us-east-1 AZs, RF=3 (2+1): room to grow."""
    return Platform(
        name="tight-2az",
        topology_factory=lambda: Topology(
            [
                Datacenter("us-east-1a", "us-east-1"),
                Datacenter("us-east-1b", "us-east-1"),
            ],
            [2, 2],
            latency=_ec2_latencies(),
        ),
        strategy_factory=lambda: NetworkTopologyStrategy({0: 2, 1: 1}),
        prices=EC2_US_EAST_2013,
        default_record_count=800,
        default_ops=20_000,
        default_clients=48,
        store_config=StoreConfig(servers_per_node=2, mutation_servers_per_node=2),
    )


#: Off-peak 700 ops/s, a 5000 ops/s peak at t=0.3s, back down at t=1.3s.
DIURNAL = ElasticSpec(
    autoscaler=AutoscalerConfig(
        interval=0.02,
        consecutive=2,
        cooldown=0.08,
        scale_out_util=0.55,
        scale_in_util=0.2,
        queue_depth_high=3.0,
        max_nodes=16,
    ),
    rebalance=RebalanceConfig(pump_interval=0.005, attempt_timeout=0.1),
    pacing_schedule=((0.3, 5000.0), (1.3, 1000.0)),
)


def run_policy(name: str):
    """One fresh elastic deployment under the named consistency policy."""
    return run(
        RunSpec(
            platform=tight_two_az_platform(),
            policy=named_policy_factory(name, tolerance=0.01),
            elastic=DIURNAL,
            workload=flash_crowd(record_count=800, hot_set_fraction=0.02),
            ops=6000,
            clients=24,
            seed=11,
            target_throughput=700.0,
        )
    )


def main() -> None:
    table = Table(
        "diurnal autoscale: 4 thin nodes over 2 AZs, 700->5000->1000 ops/s",
        [
            "policy",
            "stale %",
            "read p99 ms",
            "scale out/in",
            "keys streamed",
            "MB streamed",
            "levels used",
        ],
    )
    for name in ("eventual", "harmony", "strong"):
        out = run_policy(name)
        rep = out.report
        e = rep.elastic
        table.add_row(
            [
                rep.policy,
                round(rep.stale_rate * 100, 2),
                round(rep.read_latency_p99 * 1e3, 2),
                f"{e['scale_outs']}/{e['scale_ins']}",
                e["keys_streamed"],
                round(e["bytes_streamed"] / 1e6, 2),
                level_mix(rep.read_levels),
            ]
        )
    print(table)
    print(
        "\nThrough the same scale-out, eventual pays the inter-AZ staleness "
        "window on the hot keys, strong pays the full-fan-out latency on a "
        "growing cluster, and Harmony re-dials mid-flight to hold its 1% "
        "budget -- the migration itself contributes zero stale reads "
        "(pending ranges keep reads on the old owners until hand-off)."
    )


if __name__ == "__main__":
    main()
