#!/usr/bin/env python
"""Bank transfers vs stale reads: the lost-update anomaly, measured.

A transfer reads two account balances, then writes both. If a read
returned a *stale* balance and the transaction commits anyway, the write
silently destroys a deposit the transaction never saw -- the classic
lost-update anomaly.

This example makes staleness abundant the same way the paper's §IV does:
heavy background write traffic backs up the replicas' mutation stage, so
replica applies lag far behind acknowledgements. The same atomic
bank-transfer mix (2PC, commit-time validation OFF so anomalies are
observable rather than aborted) then runs under three read-level
policies:

- ``eventual``  -- level-ONE reads: fastest, stale under load, anomalies
  slip through at nearly the stale-read rate;
- ``harmony``   -- reads adapt to keep *estimated* staleness under 5%,
  fed by the measured ack-delay profile (which is what sees the backlog);
- ``strong``    -- level-ALL reads: zero stale reads, zero anomalies,
  slowest reads.

Run:  python examples/bank_transfer.py
"""

import numpy as np

from repro import (
    ClusterMonitor,
    ConsistencyLevel,
    Datacenter,
    HarmonyEngine,
    LinkClass,
    LogNormalLatency,
    NetworkTopologyStrategy,
    ReplicatedStore,
    StaticPolicy,
    StoreConfig,
    Topology,
    TransactionalStore,
    TxnConfig,
    TxnRunner,
    bank_transfer_mix,
    SimTransport,
)
from repro.common.tables import Table
from repro.workload.client import OpenLoopSource
from repro.workload.workloads import WorkloadSpec

ACCOUNTS = 400
TRANSFERS = 4000
DEPOSIT_RATE = 5000.0  # background writes/sec driving the mutation backlog


def build_store(seed: int) -> ReplicatedStore:
    """Two availability zones, RF=3, one mutation thread per node.

    The single mutation server is the staleness amplifier: under the
    deposit storm, replica applies queue up and the window between a
    write's ack and its full propagation stretches to tens of ms.
    """
    topology = Topology(
        [Datacenter("az-a", "region"), Datacenter("az-b", "region")],
        [5, 5],
        latency={
            LinkClass.INTRA_DC: LogNormalLatency.from_mean_cv(0.00025, 0.4),
            LinkClass.INTER_AZ: LogNormalLatency.from_mean_cv(0.0012, 0.8),
        },
    )
    return ReplicatedStore(
        SimTransport(topology),
        topology,
        strategy=NetworkTopologyStrategy({0: 2, 1: 1}),
        config=StoreConfig(
            seed=seed, read_repair_chance=0.0, mutation_servers_per_node=1
        ),
    )


def run_policy(label, make_policy):
    """One fresh deployment: deposit storm + paced atomic transfers."""
    store = build_store(seed=42)
    policy = make_policy(store)
    tstore = TransactionalStore(
        store,
        policy=policy,
        # Validation off: commits are blind, so stale reads surface as
        # lost updates instead of aborts -- the anomaly we measure here.
        config=TxnConfig(validate_reads=False),
    )
    deposits = WorkloadSpec(
        name="deposits",
        read_proportion=0.0,
        update_proportion=1.0,
        record_count=ACCOUNTS,
        distribution="uniform",
    )
    OpenLoopSource(
        store,
        deposits,
        StaticPolicy(1, 1, name="depositors"),
        rate=DEPOSIT_RATE,
        ops=int(DEPOSIT_RATE * 12),
        rng=np.random.default_rng(9),
    ).start()
    report = TxnRunner(
        tstore,
        bank_transfer_mix(record_count=ACCOUNTS, distribution="uniform"),
        n_clients=16,
        txns_total=TRANSFERS,
        target_throughput=500.0,
        seed=7,
        warmup_fraction=0.2,
    ).run()
    txn = report.txn
    fractions = (
        policy.level_time_fractions()
        if hasattr(policy, "level_time_fractions")
        else {}
    )
    mix = " ".join(
        f"n={level}:{share:.0%}" for level, share in sorted(fractions.items())
    )
    return [
        label,
        txn["commits"],
        txn["lost_updates"],
        f"{txn['lost_updates'] / max(txn['commits'], 1):.4f}",
        f"{report.stale_rate:.4f}",
        f"{report.read_latency_mean * 1e3:.2f}",
        f"{txn['commit_latency_mean_ms']:.2f}",
        mix or "-",
    ]


def harmony(store: ReplicatedStore) -> HarmonyEngine:
    """Harmony fed by the *measured* ack-delay profile.

    No analytic deployment model here on purpose: topology latencies know
    nothing about queueing backlog; the monitored rank profile does.
    """
    monitor = ClusterMonitor(window=2.0)
    store.observe(monitor)
    return HarmonyEngine(monitor, tolerance=0.05, rf=3, update_interval=0.25)


def main():
    table = Table(
        f"{TRANSFERS} atomic transfers over {ACCOUNTS} accounts during a "
        f"{DEPOSIT_RATE:.0f}/s deposit storm (blind commits)",
        [
            "policy",
            "commits",
            "lost_updates",
            "anomaly_rate",
            "stale_rate",
            "read_ms",
            "commit_ms",
            "read_levels",
        ],
    )
    table.add_row(run_policy("eventual", lambda s: StaticPolicy(1, 1, name="eventual")))
    table.add_row(run_policy("harmony(0.05)", harmony))
    table.add_row(
        run_policy(
            "strong",
            lambda s: StaticPolicy(
                ConsistencyLevel.ALL, ConsistencyLevel.ALL, name="strong"
            ),
        )
    )
    print(table.render())
    print(
        "\nEvery lost update is a commit that overwrote a balance based on a"
        "\nstale read. Eventual reads leak anomalies at roughly the stale-read"
        "\nrate; strong reads eliminate them at 3x the read latency; Harmony"
        "\ndials the level from the measured propagation profile and lands in"
        "\nbetween. Turning validation on converts the residue into aborts."
    )


if __name__ == "__main__":
    main()
