"""Tests for the pricing, billing and per-level cost estimation."""

import pytest

from repro.common.errors import ConfigError
from repro.cost.billing import Bill, Biller, fmt_usd
from repro.cost.estimator import CostEstimator
from repro.cost.pricing import EC2_US_EAST_2013, FREE_PRIVATE_CLOUD, PriceBook
from repro.monitor.collector import MonitorSnapshot
from repro.net.topology import LinkClass


class TestPriceBook:
    def test_defaults_positive(self):
        p = PriceBook()
        assert p.instance_hour > 0
        assert p.instance_rate_per_second() == pytest.approx(p.instance_hour / 3600)

    def test_validation(self):
        with pytest.raises(ConfigError):
            PriceBook(instance_hour=-1.0)

    def test_transfer_rates(self):
        p = EC2_US_EAST_2013
        assert p.transfer_rate(LinkClass.LOCAL) == 0.0
        assert p.transfer_rate(LinkClass.INTRA_DC) == 0.0
        assert p.transfer_rate(LinkClass.INTER_AZ) == 0.01
        assert p.transfer_rate(LinkClass.INTER_REGION) == 0.12

    def test_free_private_cloud(self):
        p = FREE_PRIVATE_CLOUD
        assert p.storage_gb_month == 0.0
        assert p.transfer_rate(LinkClass.INTER_REGION) == 0.0
        assert p.instance_hour > 0  # energy proxy


class TestBill:
    def test_total_and_breakdown(self):
        b = Bill(1.0, 2.0, 3.0, duration=10.0, ops=1000)
        assert b.total == 6.0
        assert b.cost_per_kop == pytest.approx(6.0)
        assert b.breakdown()["total"] == 6.0

    def test_zero_ops(self):
        b = Bill(1.0, 0.0, 0.0, duration=1.0, ops=0)
        assert b.cost_per_kop == 0.0

    def test_fmt_usd(self):
        assert fmt_usd(123.456) == "$123.46"
        assert fmt_usd(1.5) == "$1.500"
        assert fmt_usd(0.00012) == "$0.00012"


class TestBiller:
    def _run_some_ops(self, store, n=200):
        for i in range(n):
            t = i * 0.005
            store.sim.schedule_at(t, store.write, f"k{i % 10}", 1)
            store.sim.schedule_at(t + 0.002, store.read, f"k{i % 10}", 1)
        store.sim.run()

    def test_three_part_decomposition(self, store):
        biller = Biller(store, EC2_US_EAST_2013, data_size_bytes=10_000_000)
        self._run_some_ops(store)
        bill = biller.bill()
        assert bill.instance_cost > 0
        assert bill.storage_cost > 0
        assert bill.network_cost > 0
        assert bill.total == pytest.approx(
            bill.instance_cost + bill.storage_cost + bill.network_cost
        )
        assert bill.ops == store.ops_completed()

    def test_instance_cost_formula(self, store):
        biller = Biller(store, EC2_US_EAST_2013, data_size_bytes=0)
        self._run_some_ops(store)
        bill = biller.bill()
        expected = (
            store.topology.n_nodes
            * bill.duration
            * EC2_US_EAST_2013.instance_rate_per_second()
        )
        assert bill.instance_cost == pytest.approx(expected)

    def test_rounded_hours(self, store):
        prices = PriceBook(round_up_instance_hours=True)
        biller = Biller(store, prices, data_size_bytes=0)
        self._run_some_ops(store, n=50)
        bill = biller.bill()
        # a sub-second run bills one whole hour per instance
        assert bill.instance_cost == pytest.approx(
            store.topology.n_nodes * prices.instance_hour
        )

    def test_arm_resets_interval(self, store):
        biller = Biller(store, EC2_US_EAST_2013, data_size_bytes=1_000_000)
        self._run_some_ops(store, n=100)
        biller.arm()
        bill = biller.bill()
        assert bill.ops == 0
        assert bill.network_cost == 0.0

    def test_free_cloud_has_no_network_cost(self, store):
        biller = Biller(store, FREE_PRIVATE_CLOUD, data_size_bytes=1_000_000)
        self._run_some_ops(store)
        bill = biller.bill()
        assert bill.network_cost == 0.0
        assert bill.storage_cost == 0.0
        assert bill.instance_cost > 0


def snap(read_rate=1000.0, write_rate=1000.0, acks=(0.001, 0.002, 0.004, 0.008, 0.012)):
    return MonitorSnapshot(
        t=1.0,
        read_rate=read_rate,
        write_rate=write_rate,
        ack_rank_means=list(acks),
        key_profile=[(1.0, 1.0, 1)],
        read_latency=0.002,
        write_latency=0.002,
    )


class TestCostEstimator:
    def _estimator(self, topo, rf=5, local=2.6):
        return CostEstimator(
            prices=EC2_US_EAST_2013,
            topology=topo,
            rf_total=rf,
            local_replicas=local,
            value_size=1000,
        )

    def test_validation(self, small_topology):
        with pytest.raises(ConfigError):
            CostEstimator(EC2_US_EAST_2013, small_topology, 0, 1.0, 1000)
        with pytest.raises(ConfigError):
            CostEstimator(EC2_US_EAST_2013, small_topology, 3, 9.0, 1000)
        est = self._estimator(small_topology, rf=3, local=1.8)
        with pytest.raises(ConfigError):
            est.estimate(snap(), 0, 1)

    def test_cost_increases_with_read_level(self, small_topology):
        est = self._estimator(small_topology, rf=5, local=2.6)
        # need a 5-replica topology? estimator only needs rf; topology for links
        costs = [est.estimate(snap(), r, 1).total_per_op for r in (1, 3, 5)]
        assert costs[0] < costs[1] < costs[2]

    def test_parts_positive_and_sum(self, small_topology):
        est = self._estimator(small_topology, rf=3, local=1.8)
        e = est.estimate(snap(acks=(0.001, 0.002, 0.004)), 2, 1)
        assert e.total_per_op == pytest.approx(
            e.instance_per_op + e.storage_per_op + e.network_per_op
        )
        assert e.instance_per_op > 0
        assert e.storage_per_op > 0

    def test_local_reads_free_of_network(self, small_topology):
        est = self._estimator(small_topology, rf=3, local=2.0)
        e = est.estimate(snap(acks=(0.001, 0.002, 0.004), write_rate=0.0), 1, 1)
        # pure-read workload at level 1 with 2 local replicas: no billable read bytes
        assert e.network_per_op == pytest.approx(0.0)

    def test_remote_reads_billed(self, small_topology):
        est = self._estimator(small_topology, rf=3, local=1.0)
        cheap = est.estimate(snap(write_rate=0.0), 1, 1).network_per_op
        costly = est.estimate(snap(write_rate=0.0), 3, 1).network_per_op
        assert costly > cheap

    def test_single_dc_topology_free_network(self):
        from repro.net.topology import Datacenter, Topology

        topo = Topology([Datacenter("only", "r")], [5])
        est = self._estimator(topo, rf=3, local=3.0)
        e = est.estimate(snap(), 3, 1)
        assert e.network_per_op == 0.0

    def test_fallback_latency_used_when_no_profile(self, small_topology):
        est = self._estimator(small_topology, rf=3, local=1.8)
        e = est.estimate(snap(acks=()), 2, 1)
        assert e.expected_latency > 0

    def test_estimate_all_levels(self, small_topology):
        est = self._estimator(small_topology, rf=4, local=2.0)
        rows = est.estimate_all(snap(acks=(0.001, 0.002, 0.003, 0.004)), 1)
        assert [r.read_level for r in rows] == [1, 2, 3, 4]

    def test_for_store(self, store):
        est = CostEstimator.for_store(store, EC2_US_EAST_2013)
        assert est.rf_total == 3
        assert 0 < est.local_replicas <= 3
        assert est.value_size == store.default_value_size
        e = est.estimate(snap(acks=(0.001, 0.002, 0.01)), 1, 1)
        assert e.total_per_op > 0

    def test_read_repair_adds_io(self, small_topology):
        est = self._estimator(small_topology, rf=5, local=2.6)
        without = est.estimate(snap(), 1, 1, read_repair_chance=0.0)
        with_rr = est.estimate(snap(), 1, 1, read_repair_chance=0.5)
        assert with_rr.storage_per_op > without.storage_per_op
