#!/usr/bin/env python
"""Capacity planning with consistency, failure and staleness constraints.

The paper's §V sketches three follow-on directions; this example drives all
three extensions the library implements for them:

1. **provisioning** -- "the quantity of additional storage nodes that
   reduce the bill is computed": size a deployment for a given workload
   envelope under staleness/throughput/failure constraints;
2. **power** -- meter the energy of the recommended deployment at different
   consistency levels;
3. **freshness deadlines** -- bound how stale the weak levels can ever get.

Run:  python examples/capacity_planning.py
"""

from repro.common.tables import Table
from repro.cluster import FreshnessDeadline
from repro.cost import (
    EC2_US_EAST_2013,
    PowerModel,
    ProvisioningAdvisor,
    WorkloadEnvelope,
)
from repro.experiments.platforms import grid5000_bismar_platform
from repro.policy import StaticPolicy
from repro.workload.client import WorkloadRunner
from repro.workload.workloads import heavy_read_update


def plan() -> None:
    print("=== 1. provisioning under constraints ===\n")
    advisor = ProvisioningAdvisor(
        prices=EC2_US_EAST_2013,
        dc_delays=[[0.0002, 0.009], [0.009, 0.0002]],  # two sites, 9 ms WAN
    )
    envelope = WorkloadEnvelope(
        read_rate=8000.0,
        write_rate=8000.0,
        hot_key_write_rate=300.0,
        data_size_bytes=24_000_000_000,  # the paper's ~24 GB data set
        stale_tolerance=0.05,
        failures_tolerated=1,
    )
    table = Table(
        "Deployment candidates (8k+8k ops/s, 24 GB, <=5% stale, f=1)",
        ["nodes/DC", "RF/DC", "read level", "est stale", "monthly $", "verdict"],
    )
    for c in advisor.evaluate(envelope):
        table.add_row(
            [
                "+".join(map(str, c.nodes_per_dc)),
                "+".join(map(str, c.rf_per_dc)),
                c.read_level or "-",
                f"{c.est_stale_rate:.1%}",
                round(c.monthly_cost, 0),
                "OK" if c.feasible else c.reason,
            ]
        )
    print(table)
    best = advisor.recommend(envelope)
    print(
        f"\nrecommended: {best.n_nodes} nodes, RF {best.rf_per_dc}, "
        f"read level {best.read_level}, ${best.monthly_cost:,.0f}/month"
    )


def power_per_level() -> None:
    print("\n=== 2. energy per consistency level ===\n")
    plat = grid5000_bismar_platform()
    table = Table(
        "Energy of the same 4k-op workload per level (95 W idle / 170 W peak)",
        ["level", "duration s", "mean kW", "J per kop"],
    )
    for lv in (1, 3, 5):
        sim, store = plat.build(seed=2)
        meter = PowerModel(store)
        rep = WorkloadRunner(
            store, heavy_read_update(record_count=100),
            policy=StaticPolicy(lv, lv), n_clients=16, ops_total=4000, seed=2,
        ).run()
        energy = meter.report()
        table.add_row(
            [
                f"n={lv}",
                round(energy.duration, 2),
                round(energy.mean_watts / 1000.0, 2),
                round(energy.joules_per_kop, 0),
            ]
        )
    print(table)
    print("weaker levels finish sooner -> less idle burn -> fewer joules per op.")


def bounded_staleness() -> None:
    print("\n=== 3. freshness deadlines on top of eventual consistency ===\n")
    plat = grid5000_bismar_platform()
    sim, store = plat.build(seed=3)
    guard = FreshnessDeadline(store, deadline=0.05)
    store.observe(guard)
    rep = WorkloadRunner(
        store, heavy_read_update(record_count=100),
        policy=StaticPolicy(1, 1), n_clients=16, ops_total=6000, seed=3,
    ).run()
    sim.run(until=sim.now + 1.0)  # let the last re-pushes land
    print(
        f"ran {rep.ops_completed} ops at level ONE with a 50 ms freshness "
        f"deadline:\n  deadline checks: {guard.checks}, re-pushes issued: "
        f"{guard.repushes}, violations after drain: {guard.violations()}"
    )
    print(
        "every write is guaranteed on all live replicas within the deadline "
        "-- eventual consistency with a freshness contract (§V, direction 3)."
    )


if __name__ == "__main__":
    plan()
    power_per_level()
    bounded_staleness()
