"""Tests for the cohort workload engine: pooling, pacing, RNG bit-identity.

The fidelity evidence (cohort mode reproduces per-client metrics on real
scenarios) lives in ``tests/test_cohort_fidelity.py``; this module covers
the mechanism: the pooled closed loop, the vectorized paced arrival
machinery and its batch-independence guarantee, trace replay, and the
runner/elastic wiring.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.policy import StaticPolicy
from repro.workload.client import ClosedLoopClient, WorkloadRunner
from repro.workload.cohort import CohortPopulation
from repro.workload.workloads import WorkloadSpec, heavy_read_update
from tests.conftest import sim_store


def _cohort(store, **kw):
    kw.setdefault("spec", heavy_read_update(record_count=20))
    kw.setdefault("policy", StaticPolicy(1, 1))
    kw.setdefault("members", 4)
    kw.setdefault("ops", 40)
    kw.setdefault("rng", np.random.default_rng(0))
    return CohortPopulation(store, **kw)


def _track_peak_in_flight(cohort):
    """Wrap the issue path to record the high-water mark of in-flight ops."""
    state = {"peak": 0}
    orig_issue = cohort._issue

    def spy_issue():
        orig_issue()
        state["peak"] = max(state["peak"], cohort.in_flight)

    cohort._issue = spy_issue
    return state


class TestValidation:
    def test_members_positive(self, simple_store):
        with pytest.raises(ConfigError):
            _cohort(simple_store, members=0)

    def test_ops_non_negative(self, simple_store):
        with pytest.raises(ConfigError):
            _cohort(simple_store, ops=-1)

    def test_rate_positive(self, simple_store):
        with pytest.raises(ConfigError):
            _cohort(simple_store, target_rate=0.0)
        cohort = _cohort(simple_store)
        with pytest.raises(ConfigError):
            cohort.set_rate(-1.0)

    def test_batch_positive(self, simple_store):
        with pytest.raises(ConfigError):
            _cohort(simple_store, batch=0)


class TestPooledClosedLoop:
    def test_issues_exact_op_count(self, simple_store):
        finished = []
        cohort = _cohort(
            simple_store, members=4, ops=40, on_finished=finished.append
        )
        cohort.start()
        simple_store.sim.run()
        assert cohort.issued == 40
        assert cohort.completed == 40
        assert finished == [cohort]
        assert simple_store.ops_completed() == 40

    def test_window_capped_at_members(self, simple_store):
        cohort = _cohort(simple_store, members=3, ops=30)
        state = _track_peak_in_flight(cohort)
        cohort.start()
        simple_store.sim.run()
        assert cohort.completed == 30
        assert state["peak"] == 3  # never more outstanding ops than members

    def test_zero_ops_finishes_immediately(self, simple_store):
        finished = []
        cohort = _cohort(simple_store, ops=0, on_finished=finished.append)
        cohort.start()
        simple_store.sim.run()
        assert finished == [cohort]

    def test_dc_pinning(self, store):
        cohort = _cohort(store, dc=1)
        assert set(store.coordinator_pool(1)) == {3, 4}
        for _ in range(20):
            assert cohort._coordinator() in {3, 4}

    def test_rmw_issues_read_then_write(self, simple_store):
        spec = WorkloadSpec(
            read_proportion=0.0,
            update_proportion=0.0,
            read_modify_write_proportion=1.0,
            record_count=5,
        )
        cohort = _cohort(simple_store, spec=spec, members=2, ops=10)
        cohort.start()
        simple_store.sim.run()
        assert simple_store.reads_ok == 10
        assert simple_store.writes_ok == 10

    def test_insert_grows_population(self, simple_store):
        spec = WorkloadSpec(
            read_proportion=0.0,
            update_proportion=0.0,
            insert_proportion=1.0,
            record_count=5,
            distribution="uniform",
        )
        cohort = _cohort(simple_store, spec=spec, members=2, ops=10)
        cohort.start()
        simple_store.sim.run()
        assert cohort.inserted == 10
        assert cohort.chooser.item_count == 15

    def test_summary_accounts_every_op(self, simple_store):
        cohort = _cohort(simple_store, members=4, ops=60, dc=0)
        cohort.start()
        simple_store.sim.run()
        s = cohort.summary()
        assert s["members"] == 4
        assert s["ops"] == 60
        assert s["reads"] + s["writes"] + s["failed"] == 60
        assert 0.0 <= s["stale_rate"] <= 1.0
        assert s["read_latency_mean_ms"] > 0

    def test_weight_is_member_count(self, simple_store):
        assert _cohort(simple_store, members=7).weight == 7
        assert ClosedLoopClient.weight == 1


class TestPacedArrivals:
    def test_rate_paces_the_run(self, simple_store):
        cohort = _cohort(
            simple_store,
            members=1000,
            ops=200,
            target_rate=400.0,
            arrival_rng=np.random.default_rng(1),
        )
        cohort.start()
        simple_store.sim.run()
        assert cohort.completed == 200
        # 200 Poisson arrivals at 400/s span roughly half a second
        assert 0.25 < simple_store.sim.now < 1.0

    def test_backlog_preserves_member_cap(self, simple_store):
        # A flood of arrivals against a 2-member window must queue, not
        # overshoot the closed-loop cap.
        cohort = _cohort(
            simple_store,
            members=2,
            ops=50,
            target_rate=1e6,
            arrival_rng=np.random.default_rng(1),
        )
        state = _track_peak_in_flight(cohort)
        cohort.start()
        simple_store.sim.run()
        assert cohort.completed == 50
        assert state["peak"] == 2

    def test_set_rate_applies_mid_run(self, simple_store):
        # At 10/s, 100 ops would take ~10 simulated seconds; re-pacing to
        # 10000/s shortly after start must finish the run well before that.
        cohort = _cohort(
            simple_store,
            members=1000,
            ops=100,
            target_rate=10.0,
            arrival_rng=np.random.default_rng(1),
        )
        cohort.start()
        simple_store.sim.schedule_at(0.1, cohort.set_rate, 10000.0)
        simple_store.sim.run()
        assert cohort.completed == 100
        assert simple_store.sim.now < 2.0

    def test_set_rate_none_switches_to_closed_loop(self, simple_store):
        finished = []
        cohort = _cohort(
            simple_store,
            members=4,
            ops=100,
            target_rate=10.0,
            arrival_rng=np.random.default_rng(1),
            on_finished=finished.append,
        )
        cohort.start()
        simple_store.sim.schedule_at(0.05, cohort.set_rate, None)
        simple_store.sim.run()
        assert cohort.completed == 100
        assert finished == [cohort]
        assert simple_store.sim.now < 5.0  # completion-driven, not 10s of pacing


class TestRngBitIdentity:
    """The property the vectorized draw rests on: batching never changes
    the stream."""

    def test_numpy_batched_equals_sequential(self):
        batched = np.random.default_rng(5).standard_exponential(size=256)
        rng = np.random.default_rng(5)
        sequential = np.array([rng.standard_exponential() for _ in range(256)])
        assert np.array_equal(batched, sequential)  # bit-identical, not approx

    def test_gap_stream_independent_of_batch(self, simple_store):
        def gaps(batch, n=300):
            cohort = _cohort(
                simple_store,
                ops=n,
                target_rate=100.0,
                arrival_rng=np.random.default_rng(9),
                batch=batch,
            )
            cohort._arrivals_left = n
            return [cohort._next_gap() for _ in range(n)]

        reference = gaps(batch=1)
        for batch in (7, 64, 4096):
            assert gaps(batch) == reference

    def test_arrival_times_independent_of_batch(self):
        def arrival_times(batch):
            from tests.conftest import Simulator
            from repro.cluster.store import StoreConfig
            from repro.net.latency import FixedLatency
            from repro.net.topology import Datacenter, LinkClass, Topology

            topo = Topology(
                [Datacenter("dc", "r")], [4],
                latency={LinkClass.INTRA_DC: FixedLatency(0.0003)},
            )
            store = sim_store(
                Simulator(), topo, config=StoreConfig(seed=3)
            )
            cohort = CohortPopulation(
                store,
                heavy_read_update(record_count=20),
                StaticPolicy(1, 1),
                members=50,
                ops=200,
                rng=np.random.default_rng(0),
                arrival_rng=np.random.default_rng(9),
                target_rate=500.0,
                batch=batch,
            )
            times = []
            orig = cohort._arrival

            def spy():
                times.append(store.sim.now)
                orig()

            cohort._arrival = spy
            cohort.start()
            store.sim.run()
            return times

        reference = arrival_times(batch=1)
        assert len(reference) == 200
        assert arrival_times(batch=4096) == reference  # exact, not approx


class TestRunnerCohortMode:
    def _store(self):
        from tests.conftest import Simulator
        from repro.cluster.store import StoreConfig
        from repro.net.latency import FixedLatency
        from repro.net.topology import Datacenter, LinkClass, Topology

        topo = Topology(
            [Datacenter("east", "r"), Datacenter("west", "r")], [3, 3],
            latency={
                LinkClass.INTRA_DC: FixedLatency(0.0003),
                LinkClass.INTER_AZ: FixedLatency(0.001),
            },
        )
        return sim_store(
            Simulator(), topo, config=StoreConfig(seed=3, read_repair_chance=0.0)
        )

    def test_report_carries_cohort_block(self):
        rep = WorkloadRunner(
            self._store(), heavy_read_update(record_count=50),
            policy=StaticPolicy(1, 1, name="one"),
            n_clients=1000, ops_total=800, seed=1, client_mode="cohort",
        ).run()
        assert rep.client_mode == "cohort"
        assert rep.n_clients == 1000
        assert rep.ops_completed == 800
        assert rep.cohorts is not None and len(rep.cohorts) == 2  # one per DC
        assert sum(c["members"] for c in rep.cohorts) == 1000
        assert sum(c["ops"] for c in rep.cohorts) == 800

    def test_per_client_report_has_no_cohorts(self):
        rep = WorkloadRunner(
            self._store(), heavy_read_update(record_count=50),
            policy=StaticPolicy(1, 1),
            n_clients=4, ops_total=200, seed=1,
        ).run()
        assert rep.client_mode == "per_client"
        assert rep.cohorts is None

    def test_cohort_allows_more_clients_than_ops(self):
        rep = WorkloadRunner(
            self._store(), heavy_read_update(record_count=50),
            policy=StaticPolicy(1, 1),
            n_clients=1_000_000, ops_total=500, seed=1,
            target_throughput=5000.0, client_mode="cohort",
        ).run()
        assert rep.ops_completed == 500
        assert rep.n_clients == 1_000_000

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            WorkloadRunner(
                self._store(), heavy_read_update(record_count=50),
                n_clients=4, ops_total=100, client_mode="hybrid",
            )

    def test_deterministic(self):
        kw = dict(
            policy=StaticPolicy(1, 1), n_clients=500, ops_total=600, seed=9,
            target_throughput=2000.0, client_mode="cohort",
        )
        rep1 = WorkloadRunner(
            self._store(), heavy_read_update(record_count=50), **kw
        ).run()
        rep2 = WorkloadRunner(
            self._store(), heavy_read_update(record_count=50), **kw
        ).run()
        assert rep1.throughput == pytest.approx(rep2.throughput)
        assert rep1.stale_rate == rep2.stale_rate
        assert rep1.cohorts == rep2.cohorts


class TestElasticRepace:
    def test_split_is_weight_proportional(self):
        from repro.elastic.runner import _repace

        class Unit:
            def __init__(self, weight):
                self.weight = weight
                self.remaining = 10
                self.rates = []

            def set_rate(self, rate):
                self.rates.append(rate)

        class Runner:
            pass

        runner = Runner()
        small, big = Unit(1), Unit(3)
        runner.clients = [small, big]
        _repace(runner, 400.0)
        assert small.rates == [100.0]
        assert big.rates == [300.0]
        _repace(runner, 0.0)  # zero rate unpaces everyone
        assert small.rates[-1] is None and big.rates[-1] is None
