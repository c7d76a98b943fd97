"""Tests for workload specs, clients, runner and traces."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.cluster.store import DEFAULT_VALUE_SIZE, StoreConfig
from repro.policy import StaticPolicy
from repro.workload.client import (
    ClosedLoopClient,
    OpenLoopSource,
    WorkloadRunner,
    level_mix,
)
from repro.workload.traces import (
    PhasedTraceGenerator,
    TracePhase,
    TraceRecord,
    TraceRecorder,
    replay_trace,
)
from repro.workload.workloads import WORKLOADS, WorkloadSpec, heavy_read_update
from tests.conftest import sim_store


class TestWorkloadSpec:
    def test_proportions_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(read_proportion=0.5, update_proportion=0.6)

    def test_validation(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(record_count=0)

    def test_sample_op_mix(self):
        spec = WorkloadSpec(read_proportion=0.7, update_proportion=0.3)
        rng = np.random.default_rng(0)
        ops = [spec.sample_op(rng) for _ in range(5000)]
        assert ops.count("read") / 5000 == pytest.approx(0.7, abs=0.03)
        assert set(ops) == {"read", "update"}

    def test_key_naming_and_data_size(self):
        spec = WorkloadSpec(record_count=10)
        assert spec.key_of(3) == "user3"
        assert spec.data_size_bytes() == 10 * DEFAULT_VALUE_SIZE

    def test_scaled(self):
        spec = heavy_read_update(record_count=100)
        bigger = spec.scaled(1000)
        assert bigger.record_count == 1000
        assert bigger.read_proportion == spec.read_proportion

    def test_presets_valid(self):
        for name, spec in WORKLOADS.items():
            total = (
                spec.read_proportion
                + spec.update_proportion
                + spec.insert_proportion
                + spec.read_modify_write_proportion
            )
            assert total == pytest.approx(1.0)
            chooser = spec.make_chooser(rng=0)
            assert 0 <= chooser.next_index() < spec.record_count

    def test_heavy_read_update_is_50_50(self):
        spec = heavy_read_update()
        assert spec.read_proportion == 0.5
        assert spec.update_proportion == 0.5


class TestClosedLoopClient:
    def test_issues_exact_op_count(self, simple_store):
        finished = []
        client = ClosedLoopClient(
            simple_store,
            heavy_read_update(record_count=20),
            StaticPolicy(1, 1),
            ops=25,
            rng=np.random.default_rng(0),
            on_finished=finished.append,
        )
        client.start()
        simple_store.sim.run()
        assert client.issued == 25
        assert finished == [client]
        assert simple_store.ops_completed() == 25

    def test_zero_ops_finishes_immediately(self, simple_store):
        finished = []
        client = ClosedLoopClient(
            simple_store,
            heavy_read_update(record_count=5),
            StaticPolicy(1, 1),
            ops=0,
            rng=np.random.default_rng(0),
            on_finished=finished.append,
        )
        client.start()
        simple_store.sim.run()
        assert finished == [client]

    def test_target_rate_paces(self, simple_store):
        client = ClosedLoopClient(
            simple_store,
            heavy_read_update(record_count=5),
            StaticPolicy(1, 1),
            ops=50,
            rng=np.random.default_rng(0),
            target_rate=100.0,
        )
        client.start()
        simple_store.sim.run()
        # 50 ops at 100/s take >= 0.49 simulated seconds
        assert simple_store.sim.now >= 0.49

    def test_dc_pinning(self, store):
        client = ClosedLoopClient(
            store,
            heavy_read_update(record_count=5),
            StaticPolicy(1, 1),
            ops=10,
            rng=np.random.default_rng(0),
            dc=1,
        )
        # coordinators come from the store's live per-DC pool, re-queried
        # each op (so elastic membership changes reshape coordinator load)
        assert set(store.coordinator_pool(1)) == {3, 4}
        for _ in range(20):
            assert client._coordinator() in {3, 4}

    def test_rmw_issues_read_then_write(self, simple_store):
        spec = WorkloadSpec(
            read_proportion=0.0,
            update_proportion=0.0,
            read_modify_write_proportion=1.0,
            record_count=5,
        )
        client = ClosedLoopClient(
            simple_store, spec, StaticPolicy(1, 1), ops=10,
            rng=np.random.default_rng(0),
        )
        client.start()
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
        client = ClosedLoopClient(
            simple_store, spec, StaticPolicy(1, 1), ops=10,
            rng=np.random.default_rng(0),
        )
        client.start()
        simple_store.sim.run()
        assert client.inserted == 10
        assert client.chooser.item_count == 15


class _Completions(list):
    """Store listener keeping every completed operation's result."""

    on_op_complete = list.append


class TestOpenLoopSource:
    def test_validation(self, simple_store):
        with pytest.raises(ConfigError):
            OpenLoopSource(
                simple_store, heavy_read_update(record_count=5),
                StaticPolicy(1, 1), rate=0.0, ops=10,
                rng=np.random.default_rng(0),
            )

    def test_offered_rate(self, simple_store):
        src = OpenLoopSource(
            simple_store, heavy_read_update(record_count=5),
            StaticPolicy(1, 1), rate=1000.0, ops=500,
            rng=np.random.default_rng(0),
        )
        src.start()
        simple_store.sim.run()
        assert simple_store.ops_completed() == 500
        # 500 arrivals at 1000/s span about half a second
        assert 0.3 < simple_store.sim.now < 1.5

    def _completions(self, store, spec, ops=200):
        done = _Completions()
        store.observe(done)
        OpenLoopSource(
            store, spec, StaticPolicy(1, 1), rate=1000.0, ops=ops,
            rng=np.random.default_rng(4),
        ).start()
        store.sim.run()
        return done

    def test_inserts_go_past_the_loaded_range(self, simple_store):
        spec = WORKLOADS["D"].scaled(50)
        writes = [r for r in self._completions(simple_store, spec) if r.kind == "write"]
        assert writes
        # YCSB-D writes only inserts: each one a fresh key past the load
        indices = sorted(int(r.key[len("user"):]) for r in writes)
        assert indices == list(range(50, 50 + len(writes)))

    def test_read_modify_write_reads_before_it_writes(self, simple_store):
        spec = WORKLOADS["F"].scaled(50)
        results = self._completions(simple_store, spec)
        reads = {(r.key, r.t_end) for r in results if r.kind == "read"}
        writes = [r for r in results if r.kind == "write"]
        assert writes
        # the write half is sent the instant its read of the same key returns
        assert all((w.key, w.t_start) in reads for w in writes)


class TestWorkloadRunner:
    def _store(self):
        from tests.conftest import Simulator
        from repro.net.latency import FixedLatency
        from repro.net.topology import Datacenter, LinkClass, Topology

        topo = Topology(
            [Datacenter("dc", "r")], [4],
            latency={LinkClass.INTRA_DC: FixedLatency(0.0003)},
        )
        return sim_store(
            Simulator(), topo, config=StoreConfig(seed=3, read_repair_chance=0.0)
        )

    def test_report_fields(self):
        store = self._store()
        rep = WorkloadRunner(
            store, heavy_read_update(record_count=50),
            policy=StaticPolicy(1, 1, name="one"),
            n_clients=4, ops_total=400, seed=1,
        ).run()
        assert rep.ops_completed == 400
        assert rep.throughput > 0
        assert rep.policy == "one"
        assert 0.0 <= rep.stale_rate <= 1.0
        assert rep.read_latency_p99 >= rep.read_latency_mean * 0.5
        assert rep.read_levels  # level usage recorded
        assert "n=1" in level_mix(rep.read_levels)

    def test_warmup_resets_metrics(self):
        store = self._store()
        rep = WorkloadRunner(
            store, heavy_read_update(record_count=50),
            policy=StaticPolicy(1, 1),
            n_clients=4, ops_total=400, seed=1, warmup_fraction=0.5,
        ).run()
        # only the measurement half is counted
        assert rep.ops_completed == 200

    def test_validation(self):
        store = self._store()
        with pytest.raises(ConfigError):
            WorkloadRunner(store, heavy_read_update(), n_clients=0, ops_total=10)
        with pytest.raises(ConfigError):
            WorkloadRunner(store, heavy_read_update(), n_clients=10, ops_total=5)
        with pytest.raises(ConfigError):
            WorkloadRunner(
                store, heavy_read_update(), n_clients=1, ops_total=10,
                warmup_fraction=1.0,
            )

    def test_deterministic(self):
        rep1 = WorkloadRunner(
            self._store(), heavy_read_update(record_count=50),
            policy=StaticPolicy(1, 1), n_clients=4, ops_total=300, seed=9,
        ).run()
        rep2 = WorkloadRunner(
            self._store(), heavy_read_update(record_count=50),
            policy=StaticPolicy(1, 1), n_clients=4, ops_total=300, seed=9,
        ).run()
        assert rep1.throughput == pytest.approx(rep2.throughput)
        assert rep1.stale_rate == rep2.stale_rate
        assert rep1.billable_bytes == rep2.billable_bytes


class TestTraces:
    def test_recorder(self, simple_store):
        rec = TraceRecorder()
        simple_store.observe(rec)
        simple_store.sim.schedule_at(0.0, simple_store.write, "k", 1)
        simple_store.sim.schedule_at(0.5, simple_store.read, "k", 1)
        simple_store.sim.run()
        assert len(rec) == 2
        assert rec.records[0].kind == "write"
        assert rec.records[1].kind == "read"
        assert rec.records[1].stale is False

    def test_phase_validation(self):
        with pytest.raises(ConfigError):
            TracePhase("p", duration=0.0, rate=1.0, read_fraction=0.5)
        with pytest.raises(ConfigError):
            TracePhase("p", duration=1.0, rate=1.0, read_fraction=1.5)

    def test_phased_generation(self):
        gen = PhasedTraceGenerator([
            TracePhase("a", 10.0, rate=100.0, read_fraction=1.0),
            TracePhase("b", 10.0, rate=50.0, read_fraction=0.0),
        ])
        trace = gen.generate(cycles=2, seed=0)
        assert trace, "trace must not be empty"
        # time-ordered
        times = [r.t for r in trace]
        assert times == sorted(times)
        # phase labels planted correctly (phase a = first 10s of each cycle)
        for r in trace:
            in_cycle = r.t % 20.0
            assert r.phase == ("a" if in_cycle < 10.0 else "b")
        # op counts near rate x duration
        n_a = sum(1 for r in trace if r.phase == "a")
        assert n_a == pytest.approx(2 * 10 * 100, rel=0.15)
        # read fractions honored
        assert all(r.kind == "read" for r in trace if r.phase == "a")
        assert all(r.kind == "write" for r in trace if r.phase == "b")

    def test_generate_validation(self):
        gen = PhasedTraceGenerator([TracePhase("a", 1.0, 10.0, 0.5)])
        with pytest.raises(ConfigError):
            gen.generate(cycles=0)
        with pytest.raises(ConfigError):
            PhasedTraceGenerator([])

    def test_replay(self, simple_store):
        trace = [
            TraceRecord(t=0.1, kind="write", key="a"),
            TraceRecord(t=0.2, kind="read", key="a"),
        ]
        n = replay_trace(simple_store, trace, StaticPolicy(1, 1))
        assert n == 2
        simple_store.sim.run()
        assert simple_store.ops_completed() == 2

    def test_replay_keeps_the_trace_clock(self, simple_store):
        trace = [TraceRecord(t=10.0, kind="write", key="a")]
        replay_trace(simple_store, trace, StaticPolicy(1, 1))
        simple_store.sim.run()
        assert 10.0 < simple_store.sim.now < 11.0
