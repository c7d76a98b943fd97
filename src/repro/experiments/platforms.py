"""The paper's evaluation platforms, as simulated presets.

Each :class:`Platform` bundles a topology, replica placement, store
configuration, price book and default workload scale. Node counts follow
the paper; operation counts are scaled down (the paper runs 3M-10M
operations on physical testbeds; the simulator defaults to tens of
thousands, which the staleness/cost *ratios* have long converged at --
``RunSpec.ops`` and the workload's record count size a longer run).

Latency calibration (one-way, lognormal with heavy tail):

- intra-DC: 0.25 ms (10 GbE + kernel stack);
- EC2 inter-AZ (us-east-1): ~1.2 ms mean, cv 0.8 (public us-east
  measurements of the era);
- Grid'5000 Rennes <-> Sophia (east/south of France on RENATER): ~9 ms
  mean, cv 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Tuple

from repro.cluster.replication import (
    NetworkTopologyStrategy,
    ReplicationStrategy,
    SimpleStrategy,
)
from repro.cluster.store import ReplicatedStore, StoreConfig
from repro.cost.pricing import EC2_US_EAST_2013, FREE_PRIVATE_CLOUD, PriceBook
from repro.net.latency import LogNormalLatency
from repro.net.topology import Datacenter, LinkClass, Topology
from repro.runtime.interface import Transport
from repro.runtime.sim import SimTransport

__all__ = [
    "Platform",
    "single_dc_platform",
    "small_dc_platform",
    "ec2_harmony_platform",
    "grid5000_harmony_platform",
    "storm_txn_platform",
    "ec2_cost_platform",
    "grid5000_bismar_platform",
]


@dataclass
class Platform:
    """A reproducible deployment recipe.

    ``build()`` returns a fresh ``(simulator, store)`` pair; every
    experiment run gets an independent deployment so runs never share
    state. An asyncio run builds the same store on the asyncio transport.
    """

    name: str
    topology_factory: Callable[[], Topology]
    strategy_factory: Callable[[], ReplicationStrategy]
    prices: PriceBook
    default_record_count: int
    default_ops: int
    default_clients: int
    store_config: StoreConfig = field(default_factory=StoreConfig)

    def build(
        self,
        seed: int = 0,
        transport: Callable[[Topology], Transport] = SimTransport,
    ) -> Tuple[Any, ReplicatedStore]:
        """Deploy a fresh instance of this platform on a fresh transport.

        ``transport`` makes the transport from the platform's topology (by
        default one over a fresh simulator). Returns the transport's event
        engine -- the ``Simulator`` on the sim backend -- and the store.
        """
        topology = self.topology_factory()
        store = ReplicatedStore(
            transport(topology),
            topology,
            strategy=self.strategy_factory(),
            config=replace(self.store_config, seed=seed),
        )
        return store.sim, store

    @property
    def rf(self) -> int:
        """Replication factor of the preset."""
        return self.strategy_factory().rf_total


def _ec2_latencies() -> Dict[LinkClass, LogNormalLatency]:
    return {
        LinkClass.INTRA_DC: LogNormalLatency.from_mean_cv(0.00025, 0.4),
        LinkClass.INTER_AZ: LogNormalLatency.from_mean_cv(0.0012, 0.8),
    }


def _g5k_latencies() -> Dict[LinkClass, LogNormalLatency]:
    return {
        LinkClass.INTRA_DC: LogNormalLatency.from_mean_cv(0.00020, 0.3),
        LinkClass.INTER_REGION: LogNormalLatency.from_mean_cv(0.009, 0.5),
    }


def single_dc_platform() -> Platform:
    """A single-datacenter baseline deployment: 12 nodes, RF=3, LAN only.

    Not a paper platform -- the control case the scenario sweeps use to
    separate WAN-replication effects from local quorum dynamics. Priced
    like Grid'5000 (electricity+amortization proxy).
    """
    return Platform(
        name="single-dc",
        topology_factory=lambda: Topology(
            [Datacenter("local", "local-region")],
            [12],
            latency={LinkClass.INTRA_DC: LogNormalLatency.from_mean_cv(0.00025, 0.4)},
        ),
        strategy_factory=lambda: SimpleStrategy(rf=3),
        prices=FREE_PRIVATE_CLOUD,
        default_record_count=1000,
        default_ops=30_000,
        default_clients=32,
    )


def small_dc_platform() -> Platform:
    """An intentionally tight deployment: 4 thin nodes, RF=3, one LAN DC.

    The elastic scenarios' starting point -- the cluster runs hot under the
    default closed-loop load, so the autoscaler has real pressure to react
    to. Priced with the EC2 book (the autoscaler's $/op signal needs a
    non-zero instance price).
    """
    return Platform(
        name="small-dc",
        topology_factory=lambda: Topology(
            [Datacenter("local", "local-region")],
            [4],
            latency={LinkClass.INTRA_DC: LogNormalLatency.from_mean_cv(0.00025, 0.4)},
        ),
        strategy_factory=lambda: SimpleStrategy(rf=3),
        prices=EC2_US_EAST_2013,
        default_record_count=800,
        default_ops=20_000,
        default_clients=48,
        store_config=StoreConfig(servers_per_node=2, mutation_servers_per_node=2),
    )


def ec2_harmony_platform() -> Platform:
    """§IV-A on EC2: 20 VMs over two availability zones, RF=3.

    The paper deploys Cassandra on 20 EC2 VMs with a 23.85 GB data set and
    5M operations; tolerated stale rates tested there are 40% and 60%.
    """
    return Platform(
        name="ec2-harmony",
        topology_factory=lambda: Topology(
            [Datacenter("us-east-1a", "us-east-1"), Datacenter("us-east-1b", "us-east-1")],
            [10, 10],
            latency=_ec2_latencies(),
        ),
        strategy_factory=lambda: NetworkTopologyStrategy({0: 2, 1: 1}),
        prices=EC2_US_EAST_2013,
        default_record_count=1000,
        default_ops=30_000,
        default_clients=32,
    )


def grid5000_harmony_platform() -> Platform:
    """§IV-A on Grid'5000: 84 nodes over two sites, RF=3 (3M ops in the paper).

    Tolerated stale rates tested there are 20% and 40%. The WAN hop is the
    Rennes <-> Sophia RENATER path (~9 ms one-way).
    """
    return Platform(
        name="grid5000-harmony",
        topology_factory=lambda: Topology(
            [Datacenter("rennes", "west-france"), Datacenter("sophia", "south-france")],
            [42, 42],
            latency=_g5k_latencies(),
        ),
        strategy_factory=lambda: NetworkTopologyStrategy({0: 2, 1: 1}),
        prices=FREE_PRIVATE_CLOUD,
        default_record_count=1000,
        default_ops=30_000,
        default_clients=32,
    )


def storm_txn_platform() -> Platform:
    """A deliberately small two-site cluster for the commit-protocol storms.

    Ten nodes over the Grid'5000 WAN, RF=3 with a cross-site replica. Not
    a paper platform: with only five coordinators per site, a rolling
    crash storm almost surely takes down nodes that are acting as
    transaction manager for in-flight commits, so the crash-storm
    scenarios exercise the in-doubt / termination paths on every run
    instead of by seed luck (on the 84-node Grid'5000 preset a 4-node
    storm rarely lands on a TM inside its one-RTT prepared window).
    """
    return Platform(
        name="storm-txn",
        topology_factory=lambda: Topology(
            [Datacenter("rennes", "west-france"), Datacenter("sophia", "south-france")],
            [5, 5],
            latency=_g5k_latencies(),
        ),
        strategy_factory=lambda: NetworkTopologyStrategy({0: 2, 1: 1}),
        prices=FREE_PRIVATE_CLOUD,
        default_record_count=400,
        default_ops=12_000,
        default_clients=12,
    )


def ec2_cost_platform() -> Platform:
    """§IV-B cost experiments: 18 VMs, two AZs of us-east-1, RF=5.

    The paper: "Apache Cassandra was deployed with a replication factor of
    5 on two availability zones (datacenters) in the us-east-1 region ...
    with a total of 18 VMs", 10M operations, 23.84 GB.
    """
    return Platform(
        name="ec2-cost",
        topology_factory=lambda: Topology(
            [Datacenter("us-east-1a", "us-east-1"), Datacenter("us-east-1b", "us-east-1")],
            [9, 9],
            latency=_ec2_latencies(),
        ),
        strategy_factory=lambda: NetworkTopologyStrategy({0: 3, 1: 2}),
        prices=EC2_US_EAST_2013,
        default_record_count=120,
        default_ops=40_000,
        default_clients=64,
        store_config=StoreConfig(read_repair_chance=0.0),
    )


def grid5000_bismar_platform() -> Platform:
    """§IV-B Bismar evaluation: 50 nodes over two French sites, RF=5.

    Grid'5000 has no cloud bill; runs are priced with the EC2 price book
    (the paper evaluates Bismar's *cost model* there the same way).
    """
    return Platform(
        name="grid5000-bismar",
        topology_factory=lambda: Topology(
            [Datacenter("rennes", "west-france"), Datacenter("sophia", "south-france")],
            [25, 25],
            latency=_g5k_latencies(),
        ),
        strategy_factory=lambda: NetworkTopologyStrategy({0: 3, 1: 2}),
        prices=EC2_US_EAST_2013,
        default_record_count=120,
        default_ops=40_000,
        default_clients=64,
        store_config=StoreConfig(read_repair_chance=0.0),
    )
