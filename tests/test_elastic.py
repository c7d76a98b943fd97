"""Tests for the elastic cluster subsystem.

Covers, bottom-up:

- incremental ring membership and the exact ownership diff;
- store-level bootstrap/decommission with the offline rebalance fallback;
- the streaming rebalancer's pending-ranges semantics (reads consult old
  owners, writes forwarded, hand-off only when caught up);
- the **crash-window property**: a scale-out mid-run stays linearizable at
  the ownership level -- with QUORUM writes and QUORUM reads (r+w>RF),
  every key is readable and fresh at every probed instant of the
  migration, for a crash of the streaming *target* or a streaming *source*
  at any point in the window, and the migration itself always drains;
- the autoscaler's hysteresis (consecutive breaches, cooldown, bounds,
  no decisions mid-migration);
- sweep byte-determinism across worker counts for the elastic scenarios.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError, ConsistencyError
from repro.cluster.partitioner import token_of
from repro.cluster.replication import NetworkTopologyStrategy, SimpleStrategy
from repro.cluster.ring import TokenRing
from repro.cluster.coordinator import REQUEST_OVERHEAD
from repro.cluster.store import StoreConfig
from repro.elastic import autoscale, rebalance
from repro.elastic import (
    AutoscalerConfig,
    CostAwareAutoscaler,
    ElasticCluster,
    ElasticSpec,
    RebalanceConfig,
    StreamingRebalancer,
)
from repro.facade import RunSpec, run
from repro.cost.pricing import EC2_US_EAST_2013
from repro.experiments.platforms import small_dc_platform
from repro.experiments.runner import harmony_factory, static_factory
from repro.experiments.sweep import SweepRunner, plan_sweep
from repro.monitor.collector import ClusterMonitor
from repro.net.latency import FixedLatency
from repro.net.topology import Datacenter, LinkClass, Topology
from repro.simcore.simulator import Simulator
from tests.conftest import sim_store

KEYS = [f"user{i}" for i in range(60)]


def build_store(n_nodes=5, rf=3, seed=2):
    topo = Topology(
        [Datacenter("dc", "r")],
        [n_nodes],
        latency={LinkClass.INTRA_DC: FixedLatency(0.0005)},
    )
    # Short op timeouts so reads/writes racing an injected crash resolve
    # within the property tests' horizon instead of hanging to 5s.
    return sim_store(
        Simulator(),
        topo,
        strategy=SimpleStrategy(rf=rf),
        config=StoreConfig(
            seed=seed, read_repair_chance=0.0, read_timeout=0.5, write_timeout=0.5
        ),
    )


# -- ring membership ------------------------------------------------------------


class TestRingMembership:
    def test_grown_ring_equals_fresh_ring(self):
        grown = TokenRing(4, vnodes=8)
        grown.add_node(4)
        fresh = TokenRing(5, vnodes=8)
        for i in range(200):
            t = token_of(f"k{i}")
            assert grown.primary_for_token(t) == fresh.primary_for_token(t)
        assert grown.members == (0, 1, 2, 3, 4)

    def test_add_diff_is_exact(self):
        old = TokenRing(4, vnodes=8)
        new = TokenRing(4, vnodes=8)
        diff = new.add_node(4)
        assert diff  # something must move
        for i in range(5000):
            t = token_of(f"k{i}")
            before, after = old.primary_for_token(t), new.primary_for_token(t)
            covered = any(m.contains(t) for m in diff)
            if before != after:
                assert covered and after == 4
                arc = next(m for m in diff if m.contains(t))
                assert arc.old_owner == before and arc.new_owner == 4
            else:
                assert not covered

    def test_remove_diff_is_exact(self):
        old = TokenRing(5, vnodes=8)
        new = TokenRing(5, vnodes=8)
        diff = new.remove_node(2)
        assert new.members == (0, 1, 3, 4)
        for i in range(5000):
            t = token_of(f"k{i}")
            before, after = old.primary_for_token(t), new.primary_for_token(t)
            covered = any(m.contains(t) for m in diff)
            if before != after:
                assert before == 2 and covered
            else:
                assert not covered

    def test_add_remove_roundtrip_restores_layout(self):
        ring = TokenRing(4, vnodes=8)
        ring.add_node(4)
        ring.remove_node(4)
        fresh = TokenRing(4, vnodes=8)
        assert ring._tokens == fresh._tokens
        assert ring._owners == fresh._owners

    def test_membership_validation(self):
        ring = TokenRing(2, vnodes=4)
        with pytest.raises(ConfigError, match="already on the ring"):
            ring.add_node(0)
        with pytest.raises(ConfigError, match="not on the ring"):
            ring.remove_node(7)
        ring.remove_node(1)
        with pytest.raises(ConfigError, match="last ring member"):
            ring.remove_node(0)

    def test_ownership_fractions_exact(self):
        ring = TokenRing(6, vnodes=16)
        fractions = ring.ownership_fractions()
        assert fractions.sum() == pytest.approx(1.0, abs=1e-12)
        # exact gap math must agree with brute-force sampling
        import numpy as np

        counts = np.zeros(6)
        for i in range(20000):
            counts[ring.primary_for_token(token_of(f"balance:{i}"))] += 1
        assert np.abs(counts / 20000 - fractions).max() < 0.02

    def test_ownership_fractions_after_decommission(self):
        ring = TokenRing(5, vnodes=16)
        ring.remove_node(3)
        fractions = ring.ownership_fractions()
        assert fractions[3] == 0.0
        assert fractions.sum() == pytest.approx(1.0, abs=1e-12)


# -- store-level membership (offline fallback) ----------------------------------


class TestStoreMembership:
    def test_bootstrap_then_full_reads(self):
        store = build_store()
        store.preload(KEYS, value_size=10)
        node_id = store.bootstrap_node(0)
        assert node_id == 5
        assert store.ring.n_nodes == 6
        assert len(store.nodes) == 6 and len(store.coordinators) == 6
        results = []
        for key in KEYS:
            store.read(key, 3, results.append)
        store.sim.run(until=1.0)
        assert all(r.ok for r in results)
        assert store.oracle.stale_rate == 0.0
        # the newcomer holds its share of the data
        assert len(store.nodes[node_id].data) > 0

    def test_decommission_then_full_reads(self):
        store = build_store()
        store.preload(KEYS, value_size=10)
        store.decommission_node(1)
        assert store.nodes[1].retired
        assert 1 not in store.ring.members
        results = []
        for key in KEYS:
            store.read(key, 3, results.append)
        store.sim.run(until=1.0)
        assert all(r.ok for r in results)
        assert store.oracle.stale_rate == 0.0

    def test_decommission_below_rf_rejected(self):
        store = build_store(n_nodes=3, rf=3)
        with pytest.raises(ConsistencyError):
            store.decommission_node(0)

    def test_decommission_twice_rejected(self):
        store = build_store()
        store.decommission_node(1)
        with pytest.raises(ConfigError, match="already decommissioned"):
            store.decommission_node(1)

    def test_retired_node_cannot_recover(self):
        store = build_store()
        store.decommission_node(1)
        store.on_node_recover(1)
        assert not store.nodes[1].up

    def test_per_dc_quota_protected(self, az_topology):
        store = sim_store(
            Simulator(),
            az_topology,
            strategy=NetworkTopologyStrategy({0: 2, 1: 1}),
            config=StoreConfig(seed=1, read_repair_chance=0.0),
        )
        # az-a has 3 nodes and needs 2 replicas: dropping to 1 must fail
        store.decommission_node(0)
        with pytest.raises(ConsistencyError):
            store.decommission_node(1)

    def test_bootstrapped_node_is_deterministic(self):
        a, b = build_store(seed=9), build_store(seed=9)
        for s in (a, b):
            s.preload(KEYS, value_size=10)
            s.bootstrap_node(0)
        assert sorted(a.nodes[5].data) == sorted(b.nodes[5].data)


# -- streaming rebalance ---------------------------------------------------------


def build_streaming(n_nodes=5, rf=3, seed=2):
    store = build_store(n_nodes=n_nodes, rf=rf, seed=seed)
    reb = StreamingRebalancer(
        store, RebalanceConfig(pump_interval=0.002, attempt_timeout=0.02)
    )
    return store, reb


class TestStreamingRebalance:
    def test_migration_streams_and_drains(self):
        store, reb = build_streaming()
        store.preload(KEYS, value_size=10)
        store.bootstrap_node(0)
        assert reb.active
        assert reb.pending_keys() > 0
        store.sim.run(until=1.0)
        assert not reb.active
        assert reb.keys_streamed > 0
        assert reb.bytes_streamed > 0
        assert len(store.nodes[5].data) > 0

    def test_each_pump_round_starts_one_batch(self):
        store, reb = build_streaming()
        store.preload([f"user{i}" for i in range(600)], value_size=10)
        store.bootstrap_node(0)
        assert reb.pending_keys() > 2 * rebalance.BATCH_SIZE
        store.sim.run(until=0.001)  # the first round; the next is at 0.002
        assert reb.bytes_streamed == rebalance.BATCH_SIZE * (REQUEST_OVERHEAD + 10)
        store.sim.run(until=0.003)
        assert reb.bytes_streamed == 2 * rebalance.BATCH_SIZE * (REQUEST_OVERHEAD + 10)
        store.sim.run(until=1.0)
        assert not reb.active

    def test_progress_signature_advances_while_streaming(self):
        store, reb = build_streaming()
        store.preload(KEYS, value_size=10)
        assert reb.progress_signature() == (0, 0, 0, 0)
        store.bootstrap_node(0)
        store.sim.run(until=1.0)
        assert reb.progress_signature() == (
            reb.keys_streamed, reb.bytes_streamed, reb.restreams,
            reb.migrations_completed,
        )
        assert reb.progress_signature()[0] > 0
        assert reb.migrations_completed == 1

    def test_reads_during_migration_hit_old_owners(self):
        store, reb = build_streaming()
        store.preload(KEYS, value_size=10)
        store.bootstrap_node(0)
        # issued while every migration is still pending: reads must resolve
        # against the old owners (the new node holds nothing yet)
        moved = [k for k in KEYS if reb.pending_old_replicas(k) is not None]
        assert moved
        for key in moved:
            assert 5 not in reb.pending_old_replicas(key)
        results = []
        for key in KEYS:
            store.read(key, 3, results.append)
        store.sim.run(until=1.0)
        assert all(r.ok for r in results)
        assert store.oracle.stale_rate == 0.0

    def test_writes_forwarded_to_incoming_owners(self):
        store, reb = build_streaming()
        store.preload(KEYS, value_size=10)
        store.bootstrap_node(0)
        moved = [k for k in KEYS if reb.pending_old_replicas(k) is not None]
        assert moved
        done = []
        for key in moved:
            store.write(key, 1, done.append, value_size=77)
        store.sim.run(until=1.0)
        assert all(r.ok for r in done)
        # after the drain, every current replica holds the foreground write
        for key in moved:
            for r in store.strategy.replicas(key, store.ring, store.topology):
                v = store.nodes[r].data.get(key)
                assert v is not None and v.size == 77, (key, r)

    def test_handoff_waits_for_in_flight_writes(self):
        """A dispatched-but-unsettled write blocks its key's hand-off.

        The lost-write race: a write already in the old owners' queues when
        the stream lands must reach them before they stop being the
        read-visible set. The gate is the store's in-flight tracker.
        """
        store, reb = build_streaming()
        store.preload(KEYS, value_size=10)
        store.bootstrap_node(0)
        moved = [k for k in KEYS if reb.pending_old_replicas(k) is not None]
        key = moved[0]
        store._note_write_dispatched(key)  # simulate a write stuck in flight
        store.sim.run(until=1.0)
        assert reb.pending_old_replicas(key) is not None  # still gated
        assert all(k == key or reb.pending_old_replicas(k) is None for k in moved)
        store._note_write_settled(key)
        store.sim.run(until=2.0)
        assert reb.pending_old_replicas(key) is None
        assert not reb.active

    def test_decommission_retires_only_after_drain(self):
        store, reb = build_streaming()
        store.preload(KEYS, value_size=10)
        store.decommission_node(1)
        assert not store.nodes[1].retired  # still draining
        store.sim.run(until=1.0)
        assert store.nodes[1].retired
        assert not reb.active

    def test_monitor_counters_track_migration(self):
        store, reb = build_streaming()
        monitor = ClusterMonitor(window=2.0)
        store.add_listener(monitor)
        store.preload(KEYS, value_size=10)
        cluster_events = []
        store._notify_elastic = _wrap_notify(store._notify_elastic, cluster_events)
        store.bootstrap_node(0)
        store.sim.run(until=1.0)
        assert monitor.metrics.counter("ranges_moved").value > 0
        assert monitor.metrics.gauge("keys_streamed").value == reb.keys_streamed
        assert monitor.metrics.gauge("bytes_streamed").value == reb.bytes_streamed
        kinds = [e["kind"] for e in cluster_events]
        assert kinds[0] == "migration-start" and kinds[-1] == "migration-complete"


class TestInFlightWrites:
    """The hand-off gate's table exists only while a rebalancer is attached."""

    @pytest.mark.parametrize("attached", [False, True])
    def test_table_is_kept_only_with_a_rebalancer(self, attached):
        store = build_streaming()[0] if attached else build_store()
        sizes = []

        class Probe:
            def on_op_complete(self, result):
                sizes.append(len(store._inflight_writes))

        store.add_listener(Probe())
        sim = store.sim
        for i in range(2000):
            key = f"user{i % 37}"
            if i % 5:
                sim.schedule_at(0.0001 * i, store.write, key, 1 + i % 2)
            else:
                sim.schedule_at(0.0001 * i, store.read, key, 1)
        sim.run(until=5.0)
        assert len(sizes) == 2000 and store.writes_ok == 1600
        assert (max(sizes) > 0) is attached  # overlapping writes, when kept
        assert not store._inflight_writes

    def test_write_in_flight_spans_dispatch_to_ack(self):
        store, _ = build_streaming()
        store.preload(["k"])
        seen = []

        def done(result):
            seen.append((result.ok, store.write_in_flight("k")))

        store.write("k", 3, done, coordinator=0)
        store.write("k", 3, done, coordinator=0)
        assert store.write_in_flight("k")
        store.sim.run(until=1.0)
        assert seen == [(True, True), (True, False)]

    def test_write_in_flight_spans_dispatch_to_timeout(self):
        store, _ = build_streaming()
        store.preload(["k"])
        coordinator, victim = store.replica_sets("k")[0][:2]
        results, probes = [], []
        store.write("k", 3, results.append, coordinator=coordinator)
        store.on_node_crash(victim)  # the mutation is already on the wire
        store.sim.schedule_at(0.25, lambda: probes.append(store.write_in_flight("k")))
        store.sim.run(until=1.0)
        assert probes == [True]
        assert [(r.error, r.t_end) for r in results] == [("timeout", 0.5)]
        assert not store.write_in_flight("k")


def _wrap_notify(inner, log):
    def notify(event):
        log.append(event)
        inner(event)

    return notify


# -- the crash-window property ----------------------------------------------------


#: With FixedLatency(0.0005) and pump_interval 0.002 the bootstrap at
#: t=0.005 streams its first batch ~0.007 and finishes (uncrashed) within a
#: few milliseconds; the sweep brackets before / during / after, and the
#: recovery (at +0.03) lands inside the run horizon.
CRASH_TIMES = [
    0.004, 0.006, 0.0075, 0.009, 0.011, 0.013, 0.016, 0.020, 0.026, 0.035,
]

#: Foreground QUORUM writes staggered across the whole migration window.
WRITE_TIMES = [0.002, 0.006, 0.010, 0.014, 0.018, 0.024, 0.032]

#: Instants at which every key must be readable and fresh at QUORUM.
PROBE_TIMES = [0.0065, 0.0105, 0.0145, 0.019, 0.028, 0.040, 0.080]

PROP_KEYS = [f"user{i}" for i in range(30)]


def run_crash_window(crash_node_picker, crash_at, seed=2):
    """One scale-out with a crash injected at ``crash_at``; returns evidence.

    ``crash_node_picker(store, new_node)`` chooses the crash victim after
    the bootstrap happened (so it can pick the streaming target itself or
    one of the sources).
    """
    store, reb = build_streaming(seed=seed)
    store.preload(PROP_KEYS, value_size=10)
    writes, probes = [], []

    def do_writes(t_index):
        for i, key in enumerate(PROP_KEYS):
            if i % len(WRITE_TIMES) == t_index:
                store.write(key, 2, writes.append, value_size=50 + t_index)

    def do_probe():
        batch = []
        probes.append(batch)
        for key in PROP_KEYS:
            store.read(key, 2, batch.append)

    new_node_box = []

    def do_bootstrap():
        new_node_box.append(store.bootstrap_node(0))

    def do_crash():
        new = new_node_box[0] if new_node_box else None
        store.on_node_crash(crash_node_picker(store, new))

    def do_recover():
        # recover whichever node is down (the one we crashed)
        for node in store.nodes:
            if not node.up and not node.retired:
                store.on_node_recover(node.node_id)

    for t_index, t in enumerate(WRITE_TIMES):
        store.sim.schedule_at(t, do_writes, t_index)
    for t in PROBE_TIMES:
        store.sim.schedule_at(t, do_probe)
    store.sim.schedule_at(0.005, do_bootstrap)
    store.sim.schedule_at(crash_at, do_crash)
    store.sim.schedule_at(crash_at + 0.03, do_recover)
    store.sim.run(until=2.0)
    return store, reb, writes, probes


def assert_ownership_linearizable(store, reb, writes, probes, crash_at):
    """The acceptance invariant, checked during and after the migration."""
    # The migration always drains, whatever the crash hit.
    assert not reb.active
    assert reb.pending_keys() == 0
    # QUORUM writes + QUORUM reads (r+w>RF): every probed instant of the
    # migration saw every key readable and fresh. A read that *raced the
    # injected crash itself* (issued inside the down window, served by the
    # victim mid-crash) may time out -- that is the crash's doing, present
    # in the static system too -- but it must never return stale data, and
    # outside the crash window every read must succeed.
    crash_window = (crash_at - 0.005, crash_at + 0.035)
    for batch in probes:
        assert len(batch) == len(PROP_KEYS)
        for r in batch:
            if r.ok:
                assert r.stale is False, f"stale read of {r.key!r} during migration"
                continue
            assert r.error == "timeout", f"{r.key!r} unavailable: {r.error}"
            assert crash_window[0] <= r.t_start <= crash_window[1], (
                f"read of {r.key!r} at t={r.t_start} failed outside the "
                f"crash window {crash_window}"
            )
    # No acked write was lost: a final ALL read returns a version at least
    # as new as the newest acknowledged one, for every key.
    finals = []
    for key in PROP_KEYS:
        store.read(key, 3, finals.append)
    store.sim.run(until=store.sim.now + 1.0)
    for r in finals:
        assert r.ok and r.version is not None
        expected, _ = store.oracle.expected_version(r.key)
        assert not expected.newer_than(r.version), f"lost write on {r.key!r}"


class TestCrashWindowProperty:
    # The target only exists once the bootstrap (t=0.005) has happened; the
    # source sweep additionally covers crash-before-scale-out instants.
    @pytest.mark.parametrize("crash_at", [t for t in CRASH_TIMES if t >= 0.006])
    def test_target_crash_any_instant(self, crash_at):
        """Crashing the bootstrapping node itself never loses a key."""
        store, reb, writes, probes = run_crash_window(
            lambda store, new: new, crash_at
        )
        assert_ownership_linearizable(store, reb, writes, probes, crash_at)

    @pytest.mark.parametrize("crash_at", CRASH_TIMES)
    def test_source_crash_any_instant(self, crash_at):
        """Crashing a streaming source mid-hand-off never loses a key."""
        store, reb, writes, probes = run_crash_window(
            lambda store, new: 0, crash_at  # node 0: an old owner / source
        )
        assert_ownership_linearizable(store, reb, writes, probes, crash_at)

    def test_crash_actually_forces_restreams(self):
        """Sanity: the sweep exercises the retry path, not just clean runs."""
        total = 0
        for crash_at in (0.006, 0.0075, 0.009):
            _, reb, _, _ = run_crash_window(lambda store, new: new, crash_at)
            total += reb.restreams
        assert total > 0


# -- autoscaler hysteresis --------------------------------------------------------


def build_autoscaled(config=None, n_nodes=4):
    store = build_store(n_nodes=n_nodes)
    cluster = ElasticCluster(
        store, RebalanceConfig(pump_interval=0.002, attempt_timeout=0.02)
    )
    monitor = ClusterMonitor(window=2.0)
    store.add_listener(monitor)
    scaler = CostAwareAutoscaler(
        cluster,
        monitor,
        EC2_US_EAST_2013,
        config
        or AutoscalerConfig(
            interval=0.01, consecutive=3, cooldown=0.05, scale_out_util=0.6,
            scale_in_util=0.2, max_nodes=6,
        ),
    )
    return store, cluster, scaler


def force_signals(scaler, util, queue=0.0):
    scaler.observed_utilization = lambda: util
    scaler.mean_queue_depth = lambda: queue


class TestAutoscaler:
    def test_scale_out_needs_consecutive_breaches(self):
        store, cluster, scaler = build_autoscaled()
        force_signals(scaler, util=0.9)
        scaler.start()
        store.sim.run(until=0.025)  # two ticks: not enough
        assert cluster.scale_outs == 0
        store.sim.run(until=0.035)  # third consecutive breach
        assert cluster.scale_outs == 1

    def test_brief_spike_does_not_scale(self):
        store, cluster, scaler = build_autoscaled()
        spiky = iter([0.9, 0.9, 0.1, 0.9, 0.9, 0.1] * 10)
        scaler.observed_utilization = lambda: next(spiky)
        scaler.mean_queue_depth = lambda: 0.0
        scaler.start()
        store.sim.run(until=0.1)
        assert cluster.scale_outs == 0

    def test_cooldown_blocks_back_to_back_changes(self):
        store, cluster, scaler = build_autoscaled()
        force_signals(scaler, util=0.9)
        scaler.start()
        store.sim.run(until=0.06)
        # one change, then the migration + 0.05s cooldown must gate the next
        assert cluster.scale_outs == 1
        store.sim.run(until=0.2)
        assert cluster.scale_outs >= 2  # resumes after cooldown

    def test_max_nodes_clamps(self):
        store, cluster, scaler = build_autoscaled()
        force_signals(scaler, util=0.95)
        scaler.start()
        store.sim.run(until=2.0)
        assert cluster.n_members == 6  # max_nodes

    def test_scale_in_floors_at_rf(self):
        store, cluster, scaler = build_autoscaled(n_nodes=5)
        force_signals(scaler, util=0.01)
        scaler.start()
        store.sim.run(until=2.0)
        assert cluster.n_members == 3  # rf floor
        assert all(d["action"] == "scale-in" for d in scaler.decisions)
        assert all("projected_util" in d for d in scaler.decisions)

    @pytest.mark.parametrize("projected, scales_in", [(0.47, True), (0.49, False)])
    def test_scale_in_keeps_headroom_under_the_scale_out_line(
        self, projected, scales_in
    ):
        # scale_out_util 0.6 x SCALE_IN_HEADROOM 0.8: a smaller cluster
        # projected above 0.48 would soon scale back out, so it stays put
        assert autoscale.SCALE_IN_HEADROOM == 0.8
        store, cluster, scaler = build_autoscaled(n_nodes=5)
        force_signals(scaler, util=0.01)
        scaler.advisor.stage_utilization = lambda *args, **kwargs: projected
        scaler.start()
        store.sim.run(until=0.2)
        assert (cluster.n_members < 5) == scales_in
        assert all(d["projected_util"] == projected for d in scaler.decisions)

    def test_queue_depth_triggers_scale_out(self):
        store, cluster, scaler = build_autoscaled()
        force_signals(scaler, util=0.1, queue=50.0)
        scaler.start()
        store.sim.run(until=0.2)
        assert cluster.scale_outs >= 1

    def test_no_decision_while_migrating(self):
        store, cluster, scaler = build_autoscaled()
        store.preload(KEYS, value_size=10)
        force_signals(scaler, util=0.9)
        scaler.start()
        store.sim.run(until=0.035)
        assert cluster.scale_outs == 1
        # while the resulting migration streams, breaches must not stack
        assert scaler._streak_out == 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AutoscalerConfig(scale_in_util=0.7, scale_out_util=0.5)
        with pytest.raises(ConfigError):
            AutoscalerConfig(interval=0.0)
        with pytest.raises(ConfigError):
            AutoscalerConfig(consecutive=0)

    def test_min_nodes_above_max_nodes_rejected(self):
        with pytest.raises(ConfigError, match=r"min_nodes \(30\).*max_nodes \(24\)"):
            AutoscalerConfig(min_nodes=30, max_nodes=24)
        AutoscalerConfig(min_nodes=24, max_nodes=24)  # a pinned size is fine

    def test_scale_in_grid_above_the_cap_rejected(self):
        # `repro sweep --scenario elastic-scale-in-cost --grid min_nodes=30`:
        # the scenario caps max_nodes at 24, so the floor could never be met.
        from repro.experiments import scenarios

        with pytest.raises(ConfigError, match="max_nodes"):
            scenarios.get("elastic-scale-in-cost").run(
                seed=1, ops=50, overrides={"min_nodes": 30}
            )


# -- end-to-end scenarios ----------------------------------------------------------


class TestElasticScenarios:
    def test_elastic_harness_produces_block(self):
        out = run(RunSpec(
            platform=small_dc_platform(),
            policy=harmony_factory(0.3),
            elastic=ElasticSpec(
                autoscaler=AutoscalerConfig(
                    interval=0.02, consecutive=2, cooldown=0.08,
                    scale_out_util=0.5, scale_in_util=0.1, max_nodes=8,
                    queue_depth_high=3.0,
                ),
                rebalance=RebalanceConfig(pump_interval=0.005, attempt_timeout=0.1),
            ),
            ops=3000,
            clients=48,
            seed=3,
        ))
        block = out.report.elastic
        assert block is not None
        assert block["scale_outs"] >= 1
        assert block["pending_final"] == 0
        assert block["bytes_streamed"] > 0
        assert block["autoscaler"]["decisions"]
        assert out.report.stale_rate <= 1.0

    def test_pacing_schedule_repaces_clients(self):
        out = run(RunSpec(
            platform=small_dc_platform(),
            policy=static_factory(1, 1, name="one"),
            elastic=ElasticSpec(pacing_schedule=((0.05, 100.0),)),
            ops=1000,
            clients=8,
            seed=3,
            target_throughput=8000.0,
        ))
        # after the 0.05s step-down to 100 ops/s, the run must stretch out
        assert out.report.duration > 1.0
        assert out.report.throughput < 2000.0

    def test_scale_in_reduces_the_instance_bill(self):
        """The bill integrates capacity over time: fewer node-seconds, fewer $.

        Same platform, same paced load -- the autoscaled run that walks the
        cluster down must bill strictly less for instances than the static
        one (and the static path must still price exactly n x duration).
        """
        from repro.experiments.platforms import ec2_harmony_platform

        kwargs = dict(ops=1500, clients=16, seed=3, target_throughput=1000.0)
        static = run(RunSpec(
            platform=ec2_harmony_platform(),
            policy=harmony_factory(0.4),
            **kwargs,
        ))
        rate = ec2_harmony_platform().prices.instance_rate_per_second()
        assert static.bill.instance_cost == pytest.approx(
            20 * static.bill.duration * rate
        )
        elastic = run(RunSpec(
            platform=ec2_harmony_platform(),
            policy=harmony_factory(0.4),
            elastic=ElasticSpec(
                autoscaler=AutoscalerConfig(
                    interval=0.05, consecutive=2, cooldown=0.1,
                    scale_out_util=0.55, scale_in_util=0.2, min_nodes=6,
                ),
                rebalance=RebalanceConfig(pump_interval=0.005, attempt_timeout=0.1),
            ),
            **kwargs,
        ))
        assert elastic.report.elastic["scale_ins"] >= 1
        assert elastic.bill.instance_cost < 0.9 * static.bill.instance_cost

    def test_sweep_determinism_across_jobs(self):
        plan = plan_sweep(
            scenario_names=[
                "elastic-diurnal",
                "elastic-flash-crowd",
                "elastic-scale-in-cost",
                "elastic-rebalance-storm",
            ],
            root_seed=7,
            ops=800,
        )
        serial = SweepRunner(jobs=1).run(plan)
        parallel = SweepRunner(jobs=4).run(plan)
        assert serial.to_json() == parallel.to_json()
        assert serial.to_csv() == parallel.to_csv()
        rows = {row["scenario"]: row for row in serial.rows}
        assert rows["elastic-rebalance-storm"]["elastic"]["scale_outs"] >= 1
        # elastic columns surface in the CSV header
        assert "elastic_bytes_streamed" in serial.to_csv().splitlines()[0]
