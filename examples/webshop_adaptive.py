#!/usr/bin/env python
"""Webshop scenario: Harmony riding out a flash-sale traffic spike.

The paper's motivating example: a webshop needs stronger consistency than a
social feed because stale reads cost money and trust. This example builds
the scenario end to end:

- normal operation: browse-heavy traffic spread over the catalogue;
- a flash sale starts: writes concentrate violently on a handful of deal
  items (carts, stock counters) -- exactly the regime where eventual
  consistency starts serving stale stock levels;
- the sale ends and traffic relaxes.

Watch Harmony's decisions: it runs at level ONE while the catalogue is
cold, escalates the read level during the spike to hold the 5% staleness
budget, and relaxes afterwards. A static choice would have to pay the
strong-consistency price all day (or eat the staleness).

Run:  python examples/webshop_adaptive.py
"""

import numpy as np

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
    SimTransport,
)
from repro.common.tables import Table
from repro.stale import DeploymentInfo

CATALOGUE = 2000
DEAL_ITEMS = 5
PHASES = [
    # (name, duration s, ops/s, read fraction, deal-item share of traffic)
    ("morning-browse", 4.0, 3000.0, 0.95, 0.02),
    ("flash-sale", 4.0, 9000.0, 0.60, 0.85),
    ("cooldown", 4.0, 3000.0, 0.90, 0.10),
]


def build_store() -> ReplicatedStore:
    topology = Topology(
        [Datacenter("us-east-1a", "us-east-1"), Datacenter("us-east-1b", "us-east-1")],
        [8, 8],
        latency={
            LinkClass.INTRA_DC: LogNormalLatency.from_mean_cv(0.00025, 0.4),
            LinkClass.INTER_AZ: LogNormalLatency.from_mean_cv(0.0012, 0.8),
        },
    )
    return ReplicatedStore(
        SimTransport(topology),
        topology,
        strategy=NetworkTopologyStrategy({0: 2, 1: 1}),
        config=StoreConfig(seed=1, read_repair_chance=0.0),
    )


def schedule_phase(store, engine, rng, t0, duration, rate, read_frac, deal_share):
    """Poisson traffic with a controllable hot-set share."""
    sim = store.sim
    t = t0
    end = t0 + duration
    while t < end:
        t += float(rng.exponential(1.0 / rate))
        if rng.random() < deal_share:
            key = f"user{int(rng.integers(0, DEAL_ITEMS))}"
        else:
            key = f"user{int(rng.integers(DEAL_ITEMS, CATALOGUE))}"
        if rng.random() < read_frac:
            sim.schedule_at(t, _read_adaptive, store, key, engine)
        else:
            sim.schedule_at(t, _write_adaptive, store, key, engine)
    return end


def _read_adaptive(store, key, engine):
    store.read(key, engine.read_level(store.sim.now))


def _write_adaptive(store, key, engine):
    store.write(key, engine.write_level(store.sim.now))


def main() -> None:
    store = build_store()
    monitor = ClusterMonitor(window=1.0)
    store.add_listener(monitor)
    engine = HarmonyEngine(
        monitor,
        tolerance=0.05,
        rf=3,
        update_interval=0.2,
        deployment=DeploymentInfo.from_store(store),
    )
    store.preload([f"user{i}" for i in range(CATALOGUE)], 1000)

    rng = np.random.default_rng(3)
    t = 0.0
    boundaries = []
    for name, duration, rate, read_frac, deal_share in PHASES:
        start = t
        t = schedule_phase(store, engine, rng, t, duration, rate, read_frac, deal_share)
        boundaries.append((name, start, t))
    store.sim.run()

    table = Table(
        "Harmony's read-level decisions across the flash sale (tolerance 5%)",
        ["phase", "decisions", "mean level", "max level", "est stale @ONE"],
    )
    for name, start, end in boundaries:
        window = [d for d in engine.decisions if start <= d.t < end]
        if not window:
            continue
        levels = [d.read_level for d in window]
        est_one = max(d.estimates[0] for d in window)
        table.add_row(
            [
                name,
                len(window),
                round(sum(levels) / len(levels), 2),
                max(levels),
                f"{est_one:.0%}",
            ]
        )
    print(table)
    print(
        f"\nmeasured stale reads overall: {store.oracle.stale_rate_strict:.2%} "
        f"(budget 5%) across {store.ops_completed()} ops"
    )
    sale = [d.read_level for d in engine.decisions if boundaries[1][1] <= d.t < boundaries[1][2]]
    calm = [d.read_level for d in engine.decisions if d.t < boundaries[0][2]]
    if sale and calm:
        print(
            f"escalation: mean level {np.mean(calm):.2f} (browse) -> "
            f"{np.mean(sale):.2f} (flash sale)"
        )


if __name__ == "__main__":
    main()
