"""Tests for the §V future-work extensions: power, deadlines, provisioning."""

import pytest

from repro.common.errors import ConfigError
from repro.cluster.deadline import FreshnessDeadline
from repro.cost.power import IDLE_WATTS, PEAK_WATTS, PowerModel
from repro.cost.pricing import EC2_US_EAST_2013
from repro.cost.provisioning import Candidate, ProvisioningAdvisor, WorkloadEnvelope
from repro.policy import StaticPolicy
from repro.workload.client import WorkloadRunner
from repro.workload.workloads import heavy_read_update


class TestPowerModel:
    def test_idle_cluster_burns_idle_power(self, store):
        meter = PowerModel(store)
        store.sim.schedule(10.0, lambda: None)
        store.sim.run()
        report = meter.report()
        assert report.dynamic_joules == pytest.approx(0.0)
        assert report.idle_joules == pytest.approx(
            IDLE_WATTS * store.topology.n_nodes * 10.0
        )
        assert report.mean_watts == pytest.approx(IDLE_WATTS * store.topology.n_nodes)

    def test_work_adds_dynamic_energy(self, store):
        meter = PowerModel(store)
        for i in range(500):
            store.sim.schedule_at(i * 0.001, store.write, f"k{i % 10}", 1)
        store.sim.run()
        report = meter.report()
        assert report.dynamic_joules > 0
        assert report.total_joules == pytest.approx(
            report.idle_joules + report.dynamic_joules
        )
        assert report.ops == 500
        assert report.joules_per_kop > 0

    def test_dynamic_energy_is_the_idle_to_peak_gap_over_busy_time(self, store):
        meter = PowerModel(store)
        for i in range(300):
            store.sim.schedule_at(i * 0.001, store.write, f"k{i % 10}", 1)
        store.sim.run()
        # each node's two stages, as a fraction of a fully busy node
        busy = sum(
            n.resource.busy_seconds() / n.resource.servers
            + n.mutation_resource.busy_seconds() / n.mutation_resource.servers
            for n in store.nodes
        )
        assert busy > 0
        assert meter.report().dynamic_joules == pytest.approx(
            (PEAK_WATTS - IDLE_WATTS) * busy / 2.0
        )

    def test_mean_power_stays_between_idle_and_peak(self, store):
        meter = PowerModel(store)
        for i in range(2000):
            store.sim.schedule_at(i * 0.0001, store.write, f"k{i % 10}", 1)
        store.sim.run()
        report = meter.report()
        n_nodes = store.topology.n_nodes
        assert report.dynamic_joules > 0
        assert IDLE_WATTS * n_nodes < report.mean_watts <= PEAK_WATTS * n_nodes

    def test_stronger_levels_use_more_energy_per_op(self):
        """The §V direction-1 question, answered by the simulator."""
        from repro.experiments.platforms import grid5000_bismar_platform

        plat = grid5000_bismar_platform()
        joules = {}
        for lv in (1, 5):
            sim, st = plat.build(seed=2)
            meter = PowerModel(st)
            WorkloadRunner(
                st, heavy_read_update(record_count=100),
                policy=StaticPolicy(lv, lv), n_clients=16, ops_total=4000,
                seed=2,
            ).run()
            joules[lv] = meter.report().joules_per_kop
        assert joules[5] > joules[1]

    def test_arm_resets(self, store):
        meter = PowerModel(store)
        store.sim.schedule(5.0, lambda: None)
        store.sim.run()
        meter.arm()
        report = meter.report()
        assert report.duration == 0.0
        assert report.total_joules == 0.0


class TestFreshnessDeadline:
    def test_validation(self, store):
        with pytest.raises(ConfigError):
            FreshnessDeadline(store, deadline=0.0)

    def test_no_violations_after_deadline(self, store):
        fd = FreshnessDeadline(store, deadline=0.05)
        store.add_listener(fd)
        for i in range(100):
            store.sim.schedule_at(i * 0.002, store.write, f"k{i % 5}", 1)
        store.sim.run()
        assert fd.checks > 0
        assert fd.violations() == 0

    def test_repush_heals_partition_laggards(self, store):
        """A write cut off from one DC converges within ~one deadline after heal."""
        fd = FreshnessDeadline(store, deadline=0.1)
        store.add_listener(fd)
        store.network.partition_dcs(0, 1)
        store.sim.schedule_at(0.0, store.write, "k", 1, None, None, 0)
        store.sim.schedule_at(0.05, store.network.heal_all)
        store.sim.run(until=1.0)
        assert fd.repushes >= 1
        assert fd.violations() == 0
        replicas = store.strategy.replicas("k", store.ring, store.topology)
        assert all("k" in store.nodes[r].data for r in replicas)

    def test_key_filter_scopes_guarantee(self, store):
        fd = FreshnessDeadline(
            store, deadline=0.05, key_filter=lambda k: k.startswith("guard")
        )
        store.add_listener(fd)
        store.sim.schedule_at(0.0, store.write, "guarded-key", 1)
        store.sim.schedule_at(0.0, store.write, "other", 1)
        store.sim.run()
        assert fd.checks == 1  # only the guarded keyspace was checked

    def test_down_replica_not_counted(self, store):
        fd = FreshnessDeadline(store, deadline=0.05)
        store.add_listener(fd)
        replicas = store.strategy.replicas("k", store.ring, store.topology)
        store.nodes[replicas[-1]].crash()
        store.sim.schedule_at(0.0, store.write, "k", 1)
        store.sim.run(until=1.0)
        assert fd.violations() == 0  # crashed node excused


class TestProvisioning:
    def _advisor(self):
        return ProvisioningAdvisor(
            prices=EC2_US_EAST_2013,
            dc_delays=[[0.0002, 0.009], [0.009, 0.0002]],
        )

    def _envelope(self, **kw):
        base = dict(
            read_rate=5000.0,
            write_rate=5000.0,
            hot_key_write_rate=200.0,
            data_size_bytes=24_000_000_000,
            stale_tolerance=0.05,
            failures_tolerated=1,
        )
        base.update(kw)
        return WorkloadEnvelope(**base)

    def test_validation(self):
        with pytest.raises(ConfigError):
            WorkloadEnvelope(
                read_rate=-1, write_rate=1, hot_key_write_rate=1,
                data_size_bytes=1,
            )
        with pytest.raises(ConfigError):
            ProvisioningAdvisor(EC2_US_EAST_2013, [[0.0, 0.1]])  # not square

    def test_recommend_returns_cheapest_feasible(self):
        advisor = self._advisor()
        candidates = advisor.evaluate(self._envelope())
        feasible = [c for c in candidates if c.feasible]
        assert feasible, "some candidate must be feasible"
        best = advisor.recommend(self._envelope())
        assert best is not None
        assert best.feasible
        assert best.monthly_cost == min(c.monthly_cost for c in feasible)
        assert best.est_stale_rate <= 0.05

    def test_more_load_needs_more_nodes(self):
        advisor = self._advisor()
        sweep = (6, 9, 12, 18, 24, 36, 48, 60, 84)
        light = advisor.recommend(
            self._envelope(read_rate=2000.0, write_rate=2000.0), nodes_range=sweep
        )
        heavy = advisor.recommend(
            self._envelope(read_rate=40_000.0, write_rate=40_000.0),
            nodes_range=sweep,
        )
        assert light is not None and heavy is not None
        assert heavy.n_nodes >= light.n_nodes
        assert heavy.monthly_cost >= light.monthly_cost

    def test_failure_tolerance_constrains(self):
        advisor = self._advisor()
        # demanding f=4 with small RF options must kill thin layouts
        env = self._envelope(failures_tolerated=4)
        for c in advisor.evaluate(env):
            if c.feasible:
                assert sum(c.rf_per_dc) - 4 >= c.read_level

    def test_tight_staleness_forces_stronger_or_fails(self):
        advisor = self._advisor()
        loose = advisor.recommend(self._envelope(stale_tolerance=0.5))
        tight = advisor.recommend(
            self._envelope(stale_tolerance=0.0001, hot_key_write_rate=2000.0)
        )
        assert loose is not None
        if tight is not None:
            assert tight.read_level >= loose.read_level

    def test_infeasible_candidates_carry_reasons(self):
        advisor = self._advisor()
        env = self._envelope(read_rate=10_000_000.0, write_rate=10_000_000.0)
        candidates = advisor.evaluate(env)
        assert all(not c.feasible for c in candidates)
        assert all(c.reason for c in candidates if not c.feasible)

    def test_candidate_properties(self):
        c = Candidate((6, 6), (3, 2), 1, 0.01, 100.0, True)
        assert c.n_nodes == 12
        assert sum(c.rf_per_dc) == 5
