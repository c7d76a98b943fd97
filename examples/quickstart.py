#!/usr/bin/env python
"""Quickstart: deploy a simulated geo-replicated store and run Harmony.

This is the 60-second tour of the library:

1. build a two-datacenter Cassandra-like deployment;
2. attach Harmony (the paper's self-adaptive consistency engine);
3. drive it with a YCSB-style heavy read-update workload;
4. compare against static eventual (ONE/ONE) and strong (ALL/ALL).

Run:  python examples/quickstart.py
"""

from repro import (
    ClusterMonitor,
    Datacenter,
    HarmonyEngine,
    LinkClass,
    LogNormalLatency,
    NetworkTopologyStrategy,
    ReplicatedStore,
    StoreConfig,
    Topology,
    WorkloadRunner,
    heavy_read_update,
    named_policy_factory,
    SimTransport,
)
from repro.common.tables import Table
from repro.stale import DeploymentInfo
from repro.workload.client import level_mix


def build_store(seed: int) -> ReplicatedStore:
    """A 10-node, two-region deployment with a ~10 ms WAN hop, RF=3."""
    topology = Topology(
        [Datacenter("paris", "eu-west"), Datacenter("sofia", "eu-east")],
        [5, 5],
        latency={
            LinkClass.INTRA_DC: LogNormalLatency.from_mean_cv(0.00025, 0.4),
            LinkClass.INTER_REGION: LogNormalLatency.from_mean_cv(0.010, 0.5),
        },
    )
    return ReplicatedStore(
        SimTransport(topology),
        topology,
        strategy=NetworkTopologyStrategy({0: 2, 1: 1}),
        config=StoreConfig(seed=seed),
    )


def run_policy(policy_factory, label: str):
    """One fresh deployment, one policy, one workload."""
    store = build_store(seed=42)
    policy = policy_factory(store)
    report = WorkloadRunner(
        store,
        heavy_read_update(record_count=500),
        policy=policy,
        n_clients=16,
        ops_total=20_000,
        seed=7,
        warmup_fraction=0.25,
    ).run()
    return label, report


def harmony(store: ReplicatedStore) -> HarmonyEngine:
    """Harmony wired the way the paper describes: monitor -> estimator -> dial."""
    monitor = ClusterMonitor(window=2.0)
    store.observe(monitor)
    return HarmonyEngine(
        monitor,
        tolerance=0.05,  # the application tolerates 5% stale reads
        rf=3,
        update_interval=0.25,
        deployment=DeploymentInfo.from_store(store),
    )


def main() -> None:
    table = Table(
        "Harmony vs static consistency (10 nodes, 2 regions, heavy read-update)",
        ["policy", "throughput ops/s", "read mean ms", "stale % (fig1)", "levels used"],
    )
    for label, rep in (
        run_policy(named_policy_factory("eventual"), "eventual (ONE)"),
        run_policy(harmony, "harmony (5%)"),
        run_policy(named_policy_factory("strong"), "strong (ALL)"),
    ):
        table.add_row(
            [
                label,
                round(rep.throughput),
                round(rep.read_latency_mean * 1e3, 2),
                round(rep.stale_rate_strict * 100, 2),
                level_mix(rep.read_levels),
            ]
        )
    print(table)
    print(
        "\nHarmony sits between the extremes: close to eventual's speed, "
        "close to strong's freshness, using the weakest level that meets "
        "the 5% staleness budget."
    )


if __name__ == "__main__":
    main()
