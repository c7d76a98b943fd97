"""End-to-end integration tests: full stacks, failure injection, adaptation."""

import pytest

from repro.cluster.consistency import ConsistencyLevel
from repro.cluster.failures import FailureInjector
from repro.cluster.repair import AntiEntropyRepair
from repro.cost.billing import Biller
from repro.cost.pricing import EC2_US_EAST_2013
from repro.experiments.platforms import ec2_harmony_platform, grid5000_bismar_platform
from repro.experiments.runner import bismar_factory, static_factory
from repro.facade import RunSpec, run
from repro.harmony.engine import HarmonyEngine
from repro.monitor.collector import ClusterMonitor
from repro.policy import StaticPolicy
from repro.stale.dcmodel import DeploymentInfo
from repro.workload.client import WorkloadRunner
from repro.workload.workloads import heavy_read_update


class TestConsistencySpectrum:
    """The core trade-off: weaker levels are faster and staler."""

    def test_latency_ordering_across_levels(self):
        plat = grid5000_bismar_platform()
        lat = {}
        for lv in (1, 3, 5):
            rep = run(
                RunSpec(
                    platform=plat, policy=static_factory(lv, lv, name=str(lv)),
                    ops=3000, clients=8, seed=2,
                )
            ).report
            lat[lv] = rep.read_latency_mean
        assert lat[1] < lat[3] < lat[5]

    def test_staleness_ordering_across_levels(self):
        plat = grid5000_bismar_platform()
        stale = {}
        for lv in (1, 2, 5):
            rep = run(
                RunSpec(
                    platform=plat, policy=static_factory(lv, 1, name=str(lv)),
                    ops=4000, clients=16, seed=2,
                )
            ).report
            stale[lv] = rep.stale_rate_strict
        assert stale[1] >= stale[2] >= stale[5]
        assert stale[1] > 0.0

    def test_quorum_read_write_never_stale_committed(self):
        plat = grid5000_bismar_platform()
        rep = run(
            RunSpec(
                platform=plat,
                policy=static_factory(ConsistencyLevel.QUORUM, ConsistencyLevel.QUORUM),
                ops=4000, clients=16, seed=2,
            )
        ).report
        assert rep.stale_rate == 0.0

    def test_cost_ordering_across_levels(self):
        plat = grid5000_bismar_platform()
        bills = {}
        for lv in (1, 5):
            bill = run(
                RunSpec(
                    platform=plat, policy=static_factory(lv, lv, name=str(lv)),
                    ops=3000, clients=8, seed=2,
                )
            ).bill
            bills[lv] = bill.total
        assert bills[1] < bills[5]


class TestAdaptiveUnderShift:
    """Harmony must escalate when the workload heats up and relax after."""

    def test_harmony_tracks_workload_shift(self):
        plat = ec2_harmony_platform()
        sim, store = plat.build(seed=4)
        monitor = ClusterMonitor(window=1.0)
        store.add_listener(monitor)
        engine = HarmonyEngine(
            monitor, tolerance=0.05, rf=3, update_interval=0.2,
            deployment=DeploymentInfo.from_store(store),
        )
        store.preload([f"user{i}" for i in range(200)], 1000)

        import numpy as np

        rng = np.random.default_rng(0)
        # phase 1 (cold): 1 op/ms over 200 keys; phase 2 (hot): one key hammered
        t = 0.0
        for _ in range(2000):
            t += float(rng.exponential(0.001))
            key = f"user{int(rng.integers(0, 200))}"
            if rng.random() < 0.5:
                sim.schedule_at(t, store.write, key, engine.write_level(t))
            else:
                sim.schedule_at(
                    t, _adaptive_read, store, key, engine
                )
        t_hot = t + 0.5
        for _ in range(4000):
            t_hot += float(rng.exponential(0.0004))
            if rng.random() < 0.5:
                sim.schedule_at(t_hot, store.write, "user0", 1)
            else:
                sim.schedule_at(t_hot, _adaptive_read, store, "user0", engine)
        sim.run()

        cold = [d.read_level for d in engine.decisions if d.t < t]
        hot = [d.read_level for d in engine.decisions if d.t > t + 0.5]
        assert cold and hot
        assert max(hot) > min(cold)  # escalated under contention


def _adaptive_read(store, key, engine):
    store.read(key, engine.read_level(store.sim.now))


class TestFailureScenarios:
    def test_workload_survives_node_crashes(self):
        plat = ec2_harmony_platform()
        sim, store = plat.build(seed=5)
        FailureInjector(store).crash_node(0, at=0.05, duration=0.5)
        FailureInjector(store).crash_node(7, at=0.10, duration=0.5)
        rep = WorkloadRunner(
            store, heavy_read_update(record_count=100),
            policy=StaticPolicy(1, 1), n_clients=8, ops_total=4000, seed=5,
        ).run()
        # availability: almost everything still completes at ONE
        assert rep.ops_completed >= 3900
        assert rep.failures.get("read_unavailable", 0) == 0

    def test_strong_reads_fail_when_replicas_down(self):
        plat = ec2_harmony_platform()
        sim, store = plat.build(seed=6)
        # crash 5 nodes permanently: some keys lose a replica
        for n in range(5):
            store.nodes[n].crash()
        rep = WorkloadRunner(
            store, heavy_read_update(record_count=100),
            policy=StaticPolicy(ConsistencyLevel.ALL, 1),
            n_clients=4, ops_total=1000, seed=6, max_time=30.0,
        ).run()
        assert rep.failures.get("read_unavailable", 0) > 0

    def test_partition_heals_and_repair_converges(self):
        plat = ec2_harmony_platform()
        sim, store = plat.build(seed=7)
        store.preload(["k"], 1000)
        inj = FailureInjector(store)
        inj.partition(0, 1, at=0.0, duration=1.0)
        # writes land only in dc0 during the partition
        for i in range(50):
            sim.schedule_at(0.01 * i, store.write, "k", 1, None, None, 0)
        repair = AntiEntropyRepair(store, interval=0.5, sample_fraction=1.0)
        repair.start()
        sim.run(until=4.0)
        repair.stop()
        sim.run(until=6.0)
        replicas = store.strategy.replicas("k", store.ring, store.topology)
        versions = {store.nodes[r].data["k"].write_id for r in replicas}
        assert len(versions) == 1

    def test_staleness_spikes_during_partition_window(self):
        plat = ec2_harmony_platform()
        sim, store = plat.build(seed=8)
        store.preload([f"user{i}" for i in range(50)], 1000)
        inj = FailureInjector(store)
        inj.partition(0, 1, at=0.2, duration=0.4)

        import numpy as np

        rng = np.random.default_rng(1)
        t = 0.0
        for _ in range(6000):
            t += float(rng.exponential(0.0002))
            key = f"user{int(rng.integers(0, 50))}"
            dc0_coord = int(rng.integers(0, 10))
            dc1_coord = int(rng.integers(10, 20))
            if rng.random() < 0.5:
                sim.schedule_at(t, store.write, key, 1, None, None, dc0_coord)
            else:
                sim.schedule_at(t, store.read, key, 1, None, dc1_coord)
        sim.run()
        # reads from dc1 during the cut must have seen stale data
        assert store.oracle.stale_rate > 0.01


class TestBillingIntegration:
    def test_bill_matches_measured_activity(self):
        plat = grid5000_bismar_platform()
        sim, store = plat.build(seed=9)
        spec = heavy_read_update(record_count=100)
        biller = Biller(store, EC2_US_EAST_2013, spec.data_size_bytes())
        rep = WorkloadRunner(
            store, spec, policy=StaticPolicy(1, 1),
            n_clients=8, ops_total=3000, seed=9,
        ).run()
        bill = biller.bill()
        assert bill.ops == rep.ops_completed
        assert bill.duration == pytest.approx(rep.duration, rel=0.2)
        # network part prices exactly the billable traffic
        gb = store.network.traffic.billable_bytes() / 1e9
        assert bill.network_cost == pytest.approx(
            gb * EC2_US_EAST_2013.transfer_inter_region_gb, rel=1e-6
        )

    def test_bismar_cheaper_than_quorum_fresher_than_one(self):
        plat = grid5000_bismar_platform()
        results = {}
        for name, factory in (
            ("one", static_factory(1, 1)),
            ("quorum", static_factory(ConsistencyLevel.QUORUM, ConsistencyLevel.QUORUM)),
            ("bismar", bismar_factory(plat.prices, stale_cap=0.05)),
        ):
            out = run(
                RunSpec(
                    platform=plat, policy=factory, ops=6000, clients=16, seed=10,
                    target_throughput=4000.0,
                )
            )
            results[name] = (out.report, out.bill)
        bismar_rep, bismar_bill = results["bismar"]
        one_rep, _ = results["one"]
        _, quorum_bill = results["quorum"]
        assert bismar_bill.cost_per_kop < quorum_bill.cost_per_kop
        assert bismar_rep.stale_rate_strict < one_rep.stale_rate_strict


class TestEstimatorAccuracy:
    def test_model_tracks_simulator_at_one(self):
        """The strict estimator and the oracle must agree on the order of
        magnitude for level ONE (the Harmony premise)."""
        plat = grid5000_bismar_platform()
        sim, store = plat.build(seed=11)
        monitor = ClusterMonitor(window=2.0)
        store.add_listener(monitor)
        rep = WorkloadRunner(
            store, heavy_read_update(record_count=100),
            policy=StaticPolicy(1, 1), n_clients=16, ops_total=8000, seed=11,
            target_throughput=5000.0, warmup_fraction=0.25,
        ).run()
        from repro.stale.dcmodel import system_stale_rate_dc

        info = DeploymentInfo.from_store(store)
        snap = monitor.snapshot()
        est = system_stale_rate_dc(info, snap.write_rate, snap.key_profile, 1)
        measured = rep.stale_rate_strict
        assert measured > 0
        # same order of magnitude, estimator conservative-ish
        assert est == pytest.approx(measured, rel=1.0)
