"""Tests for versions, nodes, coordinator paths and the store facade."""

import pytest

from repro.common.errors import ConfigError
from repro.cluster.consistency import ConsistencyLevel
from repro.cluster.node import ServiceModel, StorageNode
from repro.cluster.store import StoreConfig
from repro.cluster.versions import NONE_VERSION, Version
from repro.net.topology import Datacenter, Topology
from repro.runtime.sim import SimTransport
from tests.conftest import sim_store


def _transport(sim):
    """A one-node deployment's transport on ``sim`` (a node needs its engine)."""
    return SimTransport(Topology([Datacenter("dc", "r")], [1]), sim=sim)


class TestVersion:
    def test_ordering_by_timestamp(self):
        old = Version(1.0, 1, 100)
        new = Version(2.0, 2, 100)
        assert new.newer_than(old)
        assert not old.newer_than(new)

    def test_tie_break_by_write_id(self):
        a = Version(1.0, 1, 100)
        b = Version(1.0, 2, 100)
        assert b.newer_than(a)

    def test_equality_and_hash(self):
        a = Version(1.0, 1, 100)
        b = Version(1.0, 1, 999)  # size not part of identity
        assert a == b
        assert hash(a) == hash(b)
        assert a != "not a version"

    def test_none_version_older_than_everything(self):
        v = Version(0.0, 0, 1)
        assert v.newer_than(NONE_VERSION)


class TestServiceModel:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ServiceModel(read_base=-1.0)

    def test_sampling_bounds(self):
        import numpy as np

        m = ServiceModel(read_base=0.001, read_jitter=0.002)
        rng = np.random.default_rng(0)
        xs = [m.sample_read(rng) for _ in range(100)]
        assert all(x >= 0.001 for x in xs)
        assert m.mean_read() == pytest.approx(0.003)
        assert m.mean_write() == pytest.approx(0.0005)

    def test_zero_jitter_deterministic(self):
        import numpy as np

        m = ServiceModel(read_base=0.002, read_jitter=0.0, write_base=0.001, write_jitter=0.0)
        rng = np.random.default_rng(0)
        assert m.sample_read(rng) == 0.002
        assert m.sample_write(rng) == 0.001

    def test_batched_unit_draws_equal_the_scalar_stream(self):
        # The identity the node's batched jitter rests on: unit-exponential
        # draws taken in blocks, scaled at use, are rng.exponential(scale)
        # element for element (bit-equal, not approximately).
        import numpy as np

        scale = 0.0003
        scalar_rng = np.random.default_rng(42)
        batch_rng = np.random.default_rng(42)
        scalar = [scalar_rng.exponential(scale) for _ in range(100_000)]
        batched = []
        while len(batched) < len(scalar):
            batched.extend(scale * u for u in batch_rng.standard_exponential(64).tolist())
        assert batched[: len(scalar)] == scalar

    def test_node_service_times_are_the_models_draws(self, sim):
        # A node serving interleaved reads and writes draws exactly what
        # ServiceModel.sample_read/sample_write draw from the same stream.
        import numpy as np

        model = ServiceModel()
        node = StorageNode(_transport(sim), 0, service=model, rng=np.random.default_rng(9))
        reference = np.random.default_rng(9)
        submitted = []

        class Recorder:  # stands in for both stages: keeps each service time
            def submit(self, service, *_):
                submitted.append(service)

        node.resource = node.mutation_resource = Recorder()
        for i in range(1000):  # crosses several block refills
            if i % 3:
                node.handle_read("k", None)
                assert submitted[-1] == model.sample_read(reference)
            else:
                node.handle_write("k", None, None)
                assert submitted[-1] == model.sample_write(reference)
        assert len(submitted) == 1000


class TestStorageNode:
    def test_write_then_read(self, sim):
        node = StorageNode(_transport(sim), 0, rng=0)
        v = Version(1.0, 1, 100)
        got = []
        node.handle_write("k", v, lambda nid, k, ver: got.append(("applied", nid)))
        sim.run()
        assert got == [("applied", 0)]
        assert node.data["k"] is v
        node.handle_read("k", lambda nid, k, ver: got.append(ver))
        sim.run()
        assert got[-1] is v

    def test_lww_reconciliation(self, sim):
        node = StorageNode(_transport(sim), 0, rng=0)
        newer = Version(2.0, 2, 100)
        older = Version(1.0, 1, 100)
        node.handle_write("k", newer, lambda *a: None)
        sim.run()
        node.handle_write("k", older, lambda *a: None)
        sim.run()
        assert node.data["k"] is newer  # older write lost the race but applied

    def test_down_node_drops_requests(self, sim):
        node = StorageNode(_transport(sim), 0, rng=0)
        node.crash()
        got = []
        node.handle_write("k", Version(1.0, 1, 1), lambda *a: got.append("w"))
        node.handle_read("k", lambda *a: got.append("r"))
        sim.run()
        assert got == []
        assert node.dropped_while_down == 2

    def test_recover_keeps_data(self, sim):
        node = StorageNode(_transport(sim), 0, rng=0)
        v = Version(1.0, 1, 1)
        node.handle_write("k", v, lambda *a: None)
        sim.run()
        node.crash()
        node.recover()
        assert node.data["k"] is v

    def test_read_missing_key_returns_none(self, sim):
        node = StorageNode(_transport(sim), 0, rng=0)
        got = []
        node.handle_read("nope", lambda nid, k, ver: got.append(ver))
        sim.run()
        assert got == [None]


def run_ops(store, ops):
    """Schedule (t, kind, key, level) ops and run to completion."""
    results = []
    for t, kind, key, level in ops:
        if kind == "w":
            store.sim.schedule_at(t, store.write, key, level, results.append)
        else:
            store.sim.schedule_at(t, store.read, key, level, results.append)
    store.sim.run()
    return results


class TestReplicatedStore:
    def test_write_read_roundtrip(self, store):
        results = run_ops(
            store, [(0.0, "w", "k", 1), (1.0, "r", "k", ConsistencyLevel.ALL)]
        )
        assert all(r.ok for r in results)
        read = results[1]
        assert read.kind == "read"
        assert read.stale is False
        assert read.value_size == store.default_value_size

    def test_read_before_any_write_is_fresh(self, store):
        results = run_ops(store, [(0.0, "r", "nokey", 1)])
        assert results[0].ok
        assert results[0].stale is False

    def test_quorum_read_after_quorum_write_never_stale(self, store):
        ops = []
        t = 0.0
        for i in range(50):
            t += 0.002
            ops.append((t, "w", f"k{i % 5}", ConsistencyLevel.QUORUM))
            t += 0.0001  # read races the next write closely
            ops.append((t, "r", f"k{i % 5}", ConsistencyLevel.QUORUM))
        run_ops(store, ops)
        assert store.oracle.stale_reads == 0

    def test_one_read_can_be_stale_across_wan(self, store):
        # hammer one key at level ONE: WAN replicas lag 10ms
        ops = []
        t = 0.0
        for i in range(300):
            t += 0.001
            ops.append((t, "w", "hot", 1))
            ops.append((t + 0.0005, "r", "hot", 1))
        run_ops(store, ops)
        assert store.oracle.stale_rate_strict > 0.0

    def test_all_write_then_one_read_fresh(self, store):
        # r + w > RF structurally fresh (committed definition)
        ops = []
        t = 0.0
        for i in range(100):
            t += 0.05
            ops.append((t, "w", "k", ConsistencyLevel.ALL))
            ops.append((t + 0.045, "r", "k", 1))  # well after propagation
        run_ops(store, ops)
        assert store.oracle.stale_reads == 0

    def test_unavailable_write(self, store):
        for node in store.nodes:
            node.crash()
        results = run_ops(store, [(0.0, "w", "k", 1)])
        assert not results[0].ok
        assert results[0].error == "unavailable"
        assert store.failures.get("write_unavailable") == 1

    def test_total_outage_fails_every_op_without_raising(self, store):
        for node in store.nodes:
            node.crash()
        results = run_ops(store, [(0.0, "r", "k", 1), (0.1, "w", "k", 1)])
        assert [r.error for r in results] == ["unavailable", "unavailable"]
        assert [r.kind for r in results] == ["read", "write"]
        assert store.failures == {"read_unavailable": 1, "write_unavailable": 1}
        
    def test_unavailable_read(self, store):
        replicas = store.strategy.replicas("k", store.ring, store.topology)
        for r in replicas:
            store.nodes[r].crash()
        results = run_ops(store, [(0.0, "r", "k", ConsistencyLevel.ALL)])
        assert not results[0].ok
        assert results[0].error == "unavailable"

    def test_partial_failure_write_succeeds_at_one(self, store):
        replicas = store.strategy.replicas("k", store.ring, store.topology)
        store.nodes[replicas[0]].crash()
        results = run_ops(store, [(0.0, "w", "k", 1)])
        assert results[0].ok

    def test_preload_installs_everywhere(self, store):
        store.preload(["a", "b"], 500)
        for key in ("a", "b"):
            for r in store.replica_sets(key)[0]:  # the resolve installs the key
                assert key in store.nodes[r].data
                assert store.nodes[r].data[key].size == 500
        assert set(store.written_keys()) == {"a", "b"}

    def test_preloaded_reads_fresh(self, store):
        store.preload(["a"], 100)
        results = run_ops(store, [(0.0, "r", "a", 1)])
        assert results[0].ok and results[0].stale is False

    def test_reset_metrics_keeps_data(self, store):
        store.preload(["a"], 100)
        run_ops(store, [(0.0, "w", "a", 1), (0.5, "r", "a", 1)])
        assert store.ops_completed() == 2
        store.reset_metrics()
        assert store.ops_completed() == 0
        assert store.oracle.reads == 0
        assert "a" in store.nodes[
            store.strategy.replicas("a", store.ring, store.topology)[0]
        ].data

    def test_listener_called(self, store):
        seen = []

        class Listener:
            def on_op_complete(self, result):
                seen.append(result.kind)

        store.add_listener(Listener())
        run_ops(store, [(0.0, "w", "k", 1), (0.5, "r", "k", 1)])
        assert seen == ["write", "read"]

    def test_propagation_listener(self, store):
        propagated = []

        class Listener:
            def on_op_complete(self, result):
                pass

            def on_write_propagated(self, result):
                propagated.append(len(result.ack_delays))

        store.add_listener(Listener())
        run_ops(store, [(0.0, "w", "k", 1)])
        assert propagated == [3]  # all RF=3 replicas acked

    def test_summary_keys(self, store):
        run_ops(store, [(0.0, "w", "k", 1), (0.5, "r", "k", 1)])
        s = store.summary()
        for key in (
            "reads_ok",
            "writes_ok",
            "stale_rate",
            "read_latency_mean",
            "billable_bytes",
        ):
            assert key in s
        assert s["reads_ok"] == 1 and s["writes_ok"] == 1

    def test_rf_exceeding_nodes_rejected(self, sim, small_topology):
        from repro.cluster.replication import SimpleStrategy

        with pytest.raises(ConfigError):
            sim_store(
                sim, small_topology, strategy=SimpleStrategy(rf=6)
            )

    def test_coordinator_pinning(self, store):
        results = []
        store.sim.schedule_at(0.0, store.write, "k", 1, results.append, None, 0)
        store.sim.run()
        assert results[0].ok

    def test_read_repair_patches_lagging_replica(self, sim, small_topology):
        from repro.cluster.replication import NetworkTopologyStrategy

        st = sim_store(
            sim,
            small_topology,
            strategy=NetworkTopologyStrategy({0: 2, 1: 1}),
            config=StoreConfig(seed=3, read_repair_chance=1.0),
        )
        st.preload(["k"], 100)
        results = run_ops(
            st,
            [(0.0, "w", "k", 1)]
            + [(0.5 + i * 0.01, "r", "k", 1) for i in range(20)],
        )
        sim.run(until=sim.now + 1.0)
        # after repair everything converges to the newest version
        versions = {
            st.nodes[r].data["k"].write_id
            for r in st.strategy.replicas("k", st.ring, st.topology)
        }
        assert len(versions) == 1


class TestOperationTimeouts:
    """One deadline queue per timeout instead of one timer per operation."""

    ALL = ConsistencyLevel.ALL

    def _crash_after_dispatch(self, st, t, kind, key, results, coordinator):
        """Issue an op at ``t`` and crash one replica while its message flies."""
        victim = next(r for r in st.replica_sets(key)[0] if r != coordinator)
        sim = st.sim
        if kind == "w":
            sim.schedule_at(t, st.write, key, self.ALL, results.append, None, coordinator)
        else:
            sim.schedule_at(t, st.read, key, self.ALL, results.append, coordinator)
        sim.schedule_at(t, st.on_node_crash, victim)  # same instant, after the send
        return victim

    def test_timeouts_fire_at_exactly_start_plus_timeout(self, simple_store):
        st, sim = simple_store, simple_store.sim
        st.preload(["k"])
        # assigned after construction: read per operation, so both are honoured
        st.write_timeout = 1.25
        st.read_timeout = 0.75
        coordinator = st.replica_sets("k")[0][0]
        results = []
        victim = self._crash_after_dispatch(st, 1.0, "w", "k", results, coordinator)
        sim.schedule_at(2.5, st.on_node_recover, victim)
        self._crash_after_dispatch(st, 3.0, "r", "k", results, coordinator)
        sim.run()
        write, read = results
        assert (write.kind, write.error, write.t_start, write.t_end) == (
            "write", "timeout", 1.0, 2.25)
        assert (read.kind, read.error, read.t_start, read.t_end) == (
            "read", "timeout", 3.0, 3.75)
        assert st.failures == {"write_timeout": 1, "read_timeout": 1}
        assert not st.write_in_flight("k")

    def test_stuck_op_does_not_delay_or_lose_later_timeouts(self, simple_store):
        # ops finishing behind an open head are popped once the head expires,
        # and a second stuck op still times out at its own deadline
        st, sim = simple_store, simple_store.sim
        st.preload(["k", "j"])
        st.read_timeout = 1.0
        coordinator = st.replica_sets("k")[0][0]
        stuck, quick = [], []
        victim = self._crash_after_dispatch(st, 0.0, "r", "k", stuck, coordinator)
        for i in range(1, 6):
            sim.schedule_at(0.1 * i, st.read, "j", 1, quick.append,
                            next(n for n in range(5) if n != victim))
        sim.schedule_at(0.6, st.on_node_recover, victim)
        self._crash_after_dispatch(st, 0.7, "r", "k", stuck, coordinator)
        # a burst of reads completes while the first op is still stuck: the
        # queue must not keep the finished ones alive until it expires
        live = next(n for n in range(5) if n != victim)
        for i in range(200):
            sim.schedule_at(0.2 + 0.001 * i, st.read, "j", 1, None, live)
        held = []
        sim.schedule_at(0.5, lambda: held.append(len(st._read_deadlines)))
        sim.run()
        assert held[0] < 40  # one open op + what one sweep period lets pile up
        assert [r.ok for r in quick] == [True] * 5
        assert [(r.error, r.t_end) for r in stuck] == [("timeout", 1.0), ("timeout", 1.7)]
        assert len(st._read_deadlines) == 0 and sim.pending() == 0

    def test_settled_ops_leave_no_timer_behind(self, simple_store):
        st, sim = simple_store, simple_store.sim
        results = run_ops(
            st,
            [(0.001 * i, "w" if i % 2 else "r", f"k{i % 7}", 2) for i in range(200)],
        )
        assert len(results) == 200 and all(r.ok for r in results)
        assert len(st._read_deadlines) == 0 and len(st._write_deadlines) == 0
        assert sim.pending() == 0
        # the draining run ended at the last real event (a trailing replica
        # ack), not at an obsolete 5 s deadline
        assert max(r.t_end for r in results) <= sim.now < 0.25

    def test_queues_track_the_in_flight_window_not_the_run(self, simple_store):
        from repro.workload.client import WorkloadRunner
        from repro.workload.workloads import WORKLOADS

        st = simple_store
        queues = (st._read_deadlines, st._write_deadlines)

        class Watch:
            longest = 0

            def on_op_complete(self, result):
                for queue in queues:
                    entries = list(queue._queue)
                    # settle() ran: whatever is queued sits behind an open head
                    assert not entries or not entries[0][1].finished
                    assert entries == sorted(entries, key=lambda e: e[0])
                    Watch.longest = max(Watch.longest, len(entries))

        st.add_listener(Watch())
        report = WorkloadRunner(
            st, WORKLOADS["A"].scaled(200), n_clients=8, ops_total=5000, seed=3
        ).run()
        assert report.ops_completed == 5000
        # a few times the 8 ops in flight (done ops wait for an open head), never ~5000
        assert 0 < Watch.longest <= 64
        assert len(queues[0]) == len(queues[1]) == 0
        # not one dead timer per op: only a timer cancelled when its queue
        # ran empty (rare with 8 clients) lingers until its time comes
        assert len(st.sim._heap) < 500
