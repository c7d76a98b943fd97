"""Shared fixtures: small deterministic deployments for fast tests."""

from __future__ import annotations

import pytest

from repro.cluster.replication import NetworkTopologyStrategy, SimpleStrategy
from repro.cluster.store import ReplicatedStore, StoreConfig
from repro.net.latency import FixedLatency
from repro.net.topology import Datacenter, LinkClass, Topology
from repro.runtime.sim import SimTransport
from repro.simcore.simulator import Simulator


def sim_store(sim, topology, strategy=None, config=None) -> ReplicatedStore:
    """A store on a transport over ``sim``, as ``Platform.build`` makes one."""
    return ReplicatedStore(SimTransport(topology, sim=sim), topology, strategy, config)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def small_topology() -> Topology:
    """Two regions, 3+2 nodes, deterministic latencies for exact assertions."""
    return Topology(
        [Datacenter("east", "r-east"), Datacenter("south", "r-south")],
        [3, 2],
        latency={
            LinkClass.INTRA_DC: FixedLatency(0.0002),
            LinkClass.INTER_REGION: FixedLatency(0.010),
        },
    )


@pytest.fixture
def az_topology() -> Topology:
    """Two availability zones in one region (inter-AZ links)."""
    return Topology(
        [Datacenter("az-a", "region"), Datacenter("az-b", "region")],
        [3, 3],
        latency={
            LinkClass.INTRA_DC: FixedLatency(0.0002),
            LinkClass.INTER_AZ: FixedLatency(0.001),
        },
    )


@pytest.fixture
def store(sim, small_topology) -> ReplicatedStore:
    """RF=3 over {2 east, 1 south}, fixed latencies, no read repair."""
    return sim_store(
        sim,
        small_topology,
        strategy=NetworkTopologyStrategy({0: 2, 1: 1}),
        config=StoreConfig(seed=1, read_repair_chance=0.0),
    )


@pytest.fixture
def simple_store(sim) -> ReplicatedStore:
    """Single-DC, RF=3 SimpleStrategy store (the minimal deployment)."""
    topo = Topology(
        [Datacenter("dc", "r")],
        [5],
        latency={LinkClass.INTRA_DC: FixedLatency(0.0005)},
    )
    return sim_store(
        sim,
        topo,
        strategy=SimpleStrategy(rf=3),
        config=StoreConfig(seed=2, read_repair_chance=0.0),
    )


def drain(sim: Simulator, until: float | None = None) -> None:
    """Run the simulator until idle (or a horizon)."""
    sim.run(until=until)
