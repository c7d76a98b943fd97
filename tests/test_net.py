"""Tests for the network substrate: latency models, topology, transport."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.net.latency import FLOOR_FRACTION, FixedLatency, LatencyModel, LogNormalLatency
from repro.net.topology import Datacenter, LinkClass, Topology
from repro.net.transport import Network, TrafficMatrix
from repro.simcore.simulator import Simulator


class _Uniform(LatencyModel):
    """A model outside the network's lognormal and fixed fast paths."""

    def __init__(self, lo: float, hi: float):
        self.lo, self.hi = lo, hi

    def sample(self, rng):
        return float(rng.uniform(self.lo, self.hi))


class TestLatencyModels:
    def test_fixed(self):
        m = FixedLatency(0.01)
        rng = np.random.default_rng(0)
        assert m.sample(rng) == 0.01
        assert m.mean() == 0.01
        with pytest.raises(ConfigError):
            FixedLatency(-1.0)

    def test_lognormal_from_mean_cv(self):
        m = LogNormalLatency.from_mean_cv(0.010, cv=0.5)
        rng = np.random.default_rng(1)
        xs = np.array([m.sample(rng) for _ in range(100_000)])
        assert xs.mean() == pytest.approx(0.010, rel=0.03)
        assert m.mean() == pytest.approx(0.010, rel=1e-9)
        assert np.all(xs >= m.floor)

    def test_lognormal_floor_fraction(self):
        m = LogNormalLatency.from_mean_cv(0.010, cv=0.5)
        assert m.floor == pytest.approx(0.010 * FLOOR_FRACTION)
        rng = np.random.default_rng(2)
        assert all(m.sample(rng) >= m.floor for _ in range(1000))

    def test_lognormal_validation(self):
        with pytest.raises(ConfigError):
            LogNormalLatency.from_mean_cv(-1.0)
        with pytest.raises(ConfigError):
            LogNormalLatency.from_mean_cv(1.0, cv=0.0)
        with pytest.raises(ConfigError):
            LogNormalLatency(0.0, sigma=-1.0)

    @given(st.floats(1e-4, 1.0), st.floats(0.1, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_property_lognormal_mean_consistent(self, mean, cv):
        m = LogNormalLatency.from_mean_cv(mean, cv)
        assert m.mean() == pytest.approx(mean, rel=1e-6)


class TestTopology:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Topology([], [])
        with pytest.raises(ConfigError):
            Topology([Datacenter("a", "r")], [1, 2])
        with pytest.raises(ConfigError):
            Topology(
                [Datacenter("a", "r"), Datacenter("a", "r")], [1, 1]
            )  # duplicate names
        with pytest.raises(ConfigError):
            Topology([Datacenter("a", "r")], [0])

    def test_node_placement(self, small_topology):
        topo = small_topology
        assert topo.n_nodes == 5
        assert [topo.dc_of(i) for i in range(5)] == [0, 0, 0, 1, 1]
        assert topo.nodes_in_dc(0) == [0, 1, 2]
        assert topo.nodes_in_dc(1) == [3, 4]
        assert topo.dc_name_of(4) == "south"

    def test_link_classes(self, small_topology, az_topology):
        assert small_topology.link_class(0, 0) is LinkClass.LOCAL
        assert small_topology.link_class(0, 1) is LinkClass.INTRA_DC
        assert small_topology.link_class(0, 3) is LinkClass.INTER_REGION
        assert az_topology.link_class(0, 3) is LinkClass.INTER_AZ

    def test_latency_model_lookup(self, small_topology):
        assert small_topology.latency_model(0, 3).mean() == pytest.approx(0.010)
        assert small_topology.latency_model(0, 1).mean() == pytest.approx(0.0002)

    def test_mean_wan_delay(self, small_topology, az_topology):
        assert small_topology.mean_wan_delay() == pytest.approx(0.010)
        assert az_topology.mean_wan_delay() == pytest.approx(0.001)
        single = Topology([Datacenter("one", "r")], [3])
        assert single.mean_wan_delay() == single.latency_models[LinkClass.INTRA_DC].mean()


class TestTrafficMatrix:
    def test_record_and_totals(self):
        t = TrafficMatrix()
        t.record(LinkClass.INTRA_DC, 100)
        t.record(LinkClass.INTER_AZ, 50)
        t.record(LinkClass.INTER_REGION, 25)
        assert t.total_bytes() == 175
        assert t.billable_bytes() == 75
        assert t.messages[LinkClass.INTRA_DC] == 1

    def test_snapshot_delta(self):
        t = TrafficMatrix()
        t.record(LinkClass.INTER_AZ, 10)
        snap = t.snapshot()
        t.record(LinkClass.INTER_AZ, 30)
        d = t.delta(snap)
        assert d.bytes[LinkClass.INTER_AZ] == 30
        assert d.messages[LinkClass.INTER_AZ] == 1
        # snapshot unaffected
        assert snap.bytes[LinkClass.INTER_AZ] == 10


class TestNetwork:
    def _net(self, topo):
        sim = Simulator()
        return sim, Network(sim, topo, rng=0)

    def test_delivery_and_accounting(self, small_topology):
        sim, net = self._net(small_topology)
        got = []
        delay = net.send(0, 3, 500, got.append, "msg")
        assert delay == pytest.approx(0.010)
        assert got == []  # not yet delivered
        sim.run()
        assert got == ["msg"]
        assert net.traffic.bytes[LinkClass.INTER_REGION] == 500

    def test_local_messages_counted_but_free_class(self, small_topology):
        sim, net = self._net(small_topology)
        net.send(2, 2, 100, lambda: None)
        assert net.traffic.bytes[LinkClass.LOCAL] == 100
        assert net.traffic.billable_bytes() == 0

    def test_partition_drops(self, small_topology):
        sim, net = self._net(small_topology)
        net.partition_dcs(0, 1)
        got = []
        assert net.send(0, 3, 100, got.append, "x") is None
        sim.run()
        assert got == []
        assert net.dropped == 1
        # intra-DC unaffected
        assert net.send(0, 1, 100, got.append, "y") is not None

    def test_partition_is_bidirectional_and_healable(self, small_topology):
        sim, net = self._net(small_topology)
        dc = small_topology.dc_of
        net.partition_dcs(0, 1)
        assert net.dcs_partitioned(dc(3), dc(0))
        net.heal_partition(1, 0)
        assert not net.dcs_partitioned(dc(0), dc(3))

    def test_dcs_partitioned_names_dc_pairs(self, small_topology):
        _, net = self._net(small_topology)
        assert not net.dcs_partitioned(0, 1)
        net.partition_dcs(0, 1)
        assert net.dcs_partitioned(0, 1) and net.dcs_partitioned(1, 0)
        # node 1 and node 3 are in dc0 and dc1: dc and node indices differ
        dc = small_topology.dc_of
        assert net.dcs_partitioned(dc(1), dc(3)) and not net.dcs_partitioned(1, 3)
        net.heal_partition(0, 1)
        assert not net.dcs_partitioned(1, 0)

    def test_heal_all(self, small_topology):
        sim, net = self._net(small_topology)
        net.partition_dcs(0, 1)
        net.heal_all()
        assert not net.dcs_partitioned(small_topology.dc_of(0), small_topology.dc_of(3))

    def test_self_partition_rejected(self, small_topology):
        _, net = self._net(small_topology)
        with pytest.raises(ConfigError):
            net.partition_dcs(0, 0)

    def test_extra_delay(self, small_topology):
        sim, net = self._net(small_topology)
        net.set_extra_delay(0.5)
        d = net.send(0, 3, 10, lambda: None)
        assert d == pytest.approx(0.510)
        # local messages unaffected
        d_local = net.send(0, 0, 10, lambda: None)
        assert d_local == pytest.approx(0.0)
        with pytest.raises(ConfigError):
            net.set_extra_delay(-1.0)


def _stochastic_topology(**override) -> Topology:
    """Three DCs (two sharing a region): all four link classes occur."""
    latency = {
        LinkClass.INTRA_DC: LogNormalLatency.from_mean_cv(0.0003, cv=0.4),
        LinkClass.INTER_AZ: LogNormalLatency.from_mean_cv(0.001, cv=0.5),
        LinkClass.INTER_REGION: LogNormalLatency.from_mean_cv(0.04, cv=0.6),
    }
    latency.update({LinkClass[name]: model for name, model in override.items()})
    return Topology(
        [Datacenter("a1", "ra"), Datacenter("a2", "ra"), Datacenter("b", "rb")],
        [2, 2, 2],
        latency=latency,
    )


class TestBlockDrawnDelays:
    """Lognormal delays come from one shared block of the stream's normals
    and must equal the scalar ``model.sample`` path bit for bit."""

    def test_bit_equal_to_scalar_sampling_across_refills(self):
        topo = _stochastic_topology()
        sim = Simulator()
        net = Network(sim, topo, rng=7)
        twin = np.random.default_rng(7)
        extra = 0.125
        net.set_extra_delay(extra)
        pick = np.random.default_rng(99)
        pairs = pick.integers(0, topo.n_nodes, size=(100_000, 2)).tolist()
        probes = pick.random(100_000) < 0.2
        classes = set()
        for (src, dst), probe in zip(pairs, probes.tolist()):
            cls = topo.link_class(src, dst)
            classes.add(cls)
            want = topo.latency_models[cls].sample(twin)
            if cls is not LinkClass.LOCAL:
                want += extra
            # the queued and the undelivered send draw from one block
            assert net.send(src, dst, 1, None if probe else int) == want
        assert classes == set(LinkClass)

    def test_partition_drop_consumes_no_draw(self):
        topo = _stochastic_topology()
        net = Network(Simulator(), topo, rng=3)
        clean = Network(Simulator(), topo, rng=3)
        net.partition_dcs(0, 2)
        first = net.send(0, 1, 1, int)  # fills the block
        assert net.send(0, 4, 1, int) is None
        net.heal_all()
        assert first == clean.send(0, 1, 1, int)
        assert net.send(0, 4, 1, int) == clean.send(0, 4, 1, int)

    def test_other_models_take_the_scalar_path(self):
        class Doubled(LogNormalLatency):
            def sample(self, rng):
                return 2.0 * super().sample(rng)

        base = LogNormalLatency.from_mean_cv(0.001, cv=0.5)
        doubled = Doubled(base.mu, base.sigma, base.floor)
        uniform = _Uniform(0.01, 0.02)
        topo = _stochastic_topology(
            INTRA_DC=FixedLatency(0.0002), INTER_AZ=doubled, INTER_REGION=uniform
        )
        net = Network(Simulator(), topo, rng=5)
        twin = np.random.default_rng(5)
        for src, dst in [(0, 1), (0, 2), (0, 4), (2, 0), (4, 2), (0, 3)] * 50:
            want = topo.latency_model(src, dst).sample(twin)
            assert net.send(src, dst, 1, int) == want
        # Nothing was fetched ahead: the network's stream stands where the
        # scalar twin's does.
        assert net.rng.random() == twin.random()

    def test_mixed_topology_is_deterministic_for_a_seed(self):
        topo = _stochastic_topology(INTER_REGION=_Uniform(0.03, 0.05))

        def run():
            net = Network(Simulator(), topo, rng=11)
            return [
                net.send(src, dst, 1, int)
                for src, dst in [(0, 1), (0, 4), (2, 5), (1, 2), (3, 3)] * 200
            ]

        assert run() == run()
