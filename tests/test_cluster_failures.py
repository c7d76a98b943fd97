"""Tests for failure injection and hinted handoff."""

import pytest

from repro.common.errors import ConfigError
from repro.cluster.consistency import ConsistencyLevel
from repro.cluster.failures import FailureInjector
from repro.cluster import hints
from repro.cluster.hints import HintStore
from repro.cluster.versions import Version


class TestHintStore:
    def test_add_and_drain(self):
        h = HintStore()
        v = Version(1.0, 1, 10)
        h.add(3, "k", v)
        assert h.pending_for(3) == 1
        drained = h.drain(3)
        assert drained == [("k", v)]
        assert h.pending_for(3) == 0
        assert h.replayed == 1

    def test_cap_evicts_oldest_and_counts_drops(self, monkeypatch):
        monkeypatch.setattr(hints, "MAX_HINTS_PER_NODE", 2)
        h = HintStore()
        versions = [Version(float(i), i, 10) for i in range(5)]
        for i, v in enumerate(versions):
            h.add(1, f"k{i}", v)
        # The cap holds: only the 2 newest hints survive, oldest went first.
        assert h.pending_for(1) == 2
        assert h.dropped == 3
        assert h.stored == 5
        drained = h.drain(1)
        assert drained == [("k3", versions[3]), ("k4", versions[4])]

    def test_cap_never_exceeded_interleaved_with_drains(self, monkeypatch):
        monkeypatch.setattr(hints, "MAX_HINTS_PER_NODE", 3)
        h = HintStore()
        for i in range(10):
            h.add(2, f"k{i}", Version(float(i), i, 10))
            assert h.pending_for(2) <= 3
        assert len(h.drain(2)) == 3
        h.add(2, "fresh", Version(11.0, 11, 10))
        assert h.pending_for(2) == 1
        assert h.dropped == 7

    def test_drain_unknown_node(self):
        assert HintStore().drain(9) == []


class TestFailureInjector:
    def test_crash_storm_rolls_through_nodes(self, store):
        inj = FailureInjector(store)
        inj.crash_storm([0, 2, 4], start=1.0, interval=2.0, downtime=1.0)
        store.sim.run(until=10.0)
        crashes = [e for e in inj.events if e.kind == "node-crash"]
        recoveries = [e for e in inj.events if e.kind == "node-recover"]
        assert [e.t for e in crashes] == [1.0, 3.0, 5.0]
        assert [e.t for e in recoveries] == [2.0, 4.0, 6.0]
        assert all(store.nodes[n].up for n in (0, 2, 4))

    def test_crash_storm_validates_timing(self, store):
        inj = FailureInjector(store)
        with pytest.raises(ConfigError):
            inj.crash_storm([0], start=0.0, interval=0.0, downtime=1.0)
        with pytest.raises(ConfigError):
            inj.crash_storm([0], start=0.0, interval=1.0, downtime=-1.0)

    def test_crash_and_recover(self, store):
        inj = FailureInjector(store)
        inj.crash_node(0, at=1.0, duration=2.0)
        store.sim.run(until=1.5)
        assert not store.nodes[0].up
        store.sim.run(until=4.0)
        assert store.nodes[0].up
        assert [e.kind for e in inj.events] == ["node-crash", "node-recover"]

    def test_crash_validation(self, store):
        inj = FailureInjector(store)
        store.sim.schedule(5.0, lambda: None)
        store.sim.run()
        with pytest.raises(ConfigError):
            inj.crash_node(0, at=1.0)  # in the past
        with pytest.raises(ConfigError):
            inj.crash_node(0, at=10.0, duration=0.0)

    def test_partition_window(self, store):
        inj = FailureInjector(store)
        inj.partition(0, 1, at=1.0, duration=1.0)
        dc = store.topology.dc_of
        store.sim.run(until=1.5)
        assert store.network.dcs_partitioned(dc(0), dc(3))
        store.sim.run(until=3.0)
        assert not store.network.dcs_partitioned(dc(0), dc(3))

    def test_partition_validation(self, store):
        inj = FailureInjector(store)
        with pytest.raises(ConfigError):
            inj.partition(0, 1, at=0.0, duration=-1.0)

    @pytest.mark.parametrize("duration", [0.0, -1.0])
    def test_rejected_calls_arm_nothing(self, store, duration):
        # A bad duration used to be caught only after the crash (or the cut)
        # was already posted, leaving it armed without its recovery (heal).
        inj = FailureInjector(store)
        before = store.sim.pending()
        with pytest.raises(ConfigError):
            inj.crash_node(0, at=10.0, duration=duration)
        with pytest.raises(ConfigError):
            inj.partition(0, 1, at=10.0, duration=duration)
        with pytest.raises(ConfigError):
            inj.crash_storm([0, 2], start=10.0, interval=1.0, downtime=duration)
        assert store.sim.pending() == before
        store.sim.run(until=20.0)
        assert inj.events == [] and all(node.up for node in store.nodes)
        dc = store.topology.dc_of
        assert not store.network.dcs_partitioned(dc(0), dc(3))

    def test_recovery_hint_replay_notifies_propagation_listeners(self, store):
        # A write whose replica was down propagates for real only when the
        # hint replays at recovery; monitors must see that completion
        # through the same on_write_propagated path normal writes use.
        class Probe:
            def __init__(self):
                self.propagated = []

            def on_op_complete(self, result):
                pass

            def on_write_propagated(self, result):
                self.propagated.append(result)

        probe = Probe()
        store.observe(probe)
        replicas = store.strategy.replicas("k", store.ring, store.topology)
        target = replicas[0]
        store.nodes[target].crash()
        store.sim.schedule_at(0.1, store.write, "k", 1, None)
        store.sim.run()
        before = len(probe.propagated)
        store.sim.schedule_at(store.sim.now + 0.5, store.on_node_recover, target)
        store.sim.run()
        replays = probe.propagated[before:]
        assert len(replays) == 1
        assert replays[0].level_label == "hint-replay"
        assert replays[0].key == "k"
        # The observed delay spans the downtime (write start -> replay apply).
        assert replays[0].ack_delays[0] > 0.5

    def test_node_listeners_see_crash_and_recovery(self, store):
        events = []

        class Listener:
            def on_node_crash(self, node_id):
                events.append(("crash", node_id))

            def on_node_recover(self, node_id):
                events.append(("recover", node_id))

        store.observe(Listener())
        inj = FailureInjector(store)
        inj.crash_node(2, at=1.0, duration=2.0)
        store.sim.run(until=5.0)
        assert events == [("crash", 2), ("recover", 2)]

    def test_hints_replayed_after_recovery(self, store):
        # crash a replica of "k", write, recover: hint should patch it
        replicas = store.strategy.replicas("k", store.ring, store.topology)
        target = replicas[0]
        store.nodes[target].crash()
        results = []
        store.sim.schedule_at(0.1, store.write, "k", 1, results.append)
        store.sim.run()
        assert results[0].ok
        assert store.hints.pending_for(target) == 1
        assert "k" not in store.nodes[target].data

        store.sim.schedule_at(store.sim.now + 0.1, store.on_node_recover, target)
        store.sim.run()
        assert "k" in store.nodes[target].data
        assert store.hints.pending_for(target) == 0

    def test_writes_during_partition_miss_remote_dc(self, store):
        store.network.partition_dcs(0, 1)
        results = []
        # pin coordinator in dc0; the dc1 replica never hears about the write
        store.sim.schedule_at(0.0, store.write, "k", 1, results.append, None, 0)
        store.sim.run()
        assert results[0].ok  # level ONE met locally
        replicas = store.strategy.replicas("k", store.ring, store.topology)
        remote = [r for r in replicas if store.topology.dc_of(r) == 1]
        for r in remote:
            assert "k" not in store.nodes[r].data

    def test_each_quorum_fails_under_partition(self, store):
        store.network.partition_dcs(0, 1)
        results = []
        store.sim.schedule_at(
            0.0, store.write, "k", ConsistencyLevel.EACH_QUORUM, results.append, None, 0
        )
        store.sim.run(until=10.0)
        assert not results[0].ok
        assert results[0].error == "timeout"

