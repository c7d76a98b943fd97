"""Tests for the monitoring module (rates, ack profile, key frequencies)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.cluster.coordinator import OpResult
from repro.monitor.collector import ClusterMonitor
from repro.monitor import keyfreq
from repro.monitor.keyfreq import KeyFrequencyTracker
from repro.obs.recorder import ObsConfig, RunObserver


def op(kind, key, t_start, t_end, ok=True, acks=None):
    r = OpResult(kind, key, t_start, "n=1")
    r.t_end = t_end
    r.ok = ok
    if acks is not None:
        r.ack_delays = list(acks)
        r.replicas_contacted = len(acks)
    return r


class TestKeyFrequencyTracker:
    def test_validation(self):
        with pytest.raises(ConfigError):
            KeyFrequencyTracker(window=0.0)

    def test_shares(self):
        t = KeyFrequencyTracker(window=10.0)
        for _ in range(3):
            t.record_read("a", 1.0)
        t.record_read("b", 1.0)
        shares = t.read_shares()
        assert shares["a"] == pytest.approx(0.75)
        assert shares["b"] == pytest.approx(0.25)

    def test_empty_shares(self):
        t = KeyFrequencyTracker()
        assert t.read_shares() == {}
        assert t.write_shares() == {}

    def test_rotation_expires_old_counts(self):
        t = KeyFrequencyTracker(window=1.0)
        t.record_write("old", 0.0)
        t.record_write("new", 1.5)  # rotates; "old" in previous bucket
        assert "old" in t.write_shares()
        t.record_write("newer", 3.0)  # rotates again; "old" gone
        assert "old" not in t.write_shares()
        assert "new" in t.write_shares()

    def test_long_silence_drops_both_buckets(self):
        t = KeyFrequencyTracker(window=1.0)
        t.record_read("before", 0.5)
        t.record_write("before", 0.5)
        t.record_read("after", 3.5)  # 3 windows later: "before" is stale
        t.record_write("after", 3.5)
        assert t.read_shares() == {"after": 1.0}
        assert t.write_shares() == {"after": 1.0}
        # One window of silence only ages the bucket, it does not drop it.
        t.record_read("next", 4.9)
        assert set(t.read_shares()) == {"after", "next"}

    def test_collision_profile_exact_when_small(self):
        t = KeyFrequencyTracker()
        t.record_read("a", 0.0)
        t.record_write("a", 0.0)
        t.record_read("b", 0.0)
        rows = t.collision_profile()
        assert len(rows) == 2
        assert all(m == 1 for _, _, m in rows)
        # sorted by read share desc, shares sum to 1
        assert rows[0][0] >= rows[1][0]
        assert sum(r for r, _, _ in rows) == pytest.approx(1.0)

    def test_collision_profile_tail_folding(self):
        t = KeyFrequencyTracker()
        for i in range(600):
            t.record_read(f"k{i}", 0.0)
            t.record_write(f"k{i}", 0.0)
        rows = t.collision_profile()  # PROFILE_HEAD = 512 exact rows
        assert len(rows) == 513
        head, tail = rows[:512], rows[512]
        assert tail[2] == 88  # multiplicity of the folded tail
        total_read = sum(r * m for r, _, m in rows)
        assert total_read == pytest.approx(1.0, rel=1e-6)

    @given(
        kinds=st.sampled_from([("read",), ("write",), ("read", "write")]),
        events=st.lists(
            st.tuples(
                st.integers(0, 1),  # which of the allowed kinds
                st.integers(0, 40),  # key (a small keyspace forces heavy ties)
                st.floats(0.0, 2.5),  # gap in windows: 0, 1 or 2 rotations
            ),
            max_size=300,
        ),
        extra_keys=st.integers(-2, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_collision_profile_is_the_share_sort_bit_for_bit(
        self, kinds, events, extra_keys
    ):
        t = KeyFrequencyTracker(window=1.0)
        now = 0.0
        for which, key, gap in events:
            now += gap
            kind = kinds[which % len(kinds)]
            if kind == "read":
                t.record_read(f"k{key}", now)
            else:
                t.record_write(f"k{key}", now)
        n_keys = len(set(t.read_shares()) | set(t.write_shares()))
        for max_keys in [*range(1, n_keys + 2 + max(extra_keys, 0)), 512]:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(keyfreq, "PROFILE_HEAD", max_keys)
                got = t.collision_profile()
            want = _share_sort_profile(t, max_keys)
            # repr also tells 0 from 0.0 and 0.0 from -0.0
            assert got == want and repr(got) == repr(want)


def _share_sort_profile(t, max_keys):
    """The key profile as first written: share dicts and a lambda sort."""
    r = t.read_shares()
    w = t.write_shares()
    keys = set(r) | set(w)
    rows = sorted(
        ((r.get(k, 0.0), w.get(k, 0.0)) for k in keys),
        key=lambda rw: (-rw[0], -rw[1]),
    )
    if len(rows) <= max_keys:
        return [(rs, ws, 1) for rs, ws in rows]
    head = [(rs, ws, 1) for rs, ws in rows[:max_keys]]
    tail = rows[max_keys:]
    n = len(tail)
    tr = sum(x for x, _ in tail) / n
    tw = sum(y for _, y in tail) / n
    head.append((tr, tw, n))
    return head


class TestClusterMonitor:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ClusterMonitor(window=0.0)

    def test_rates(self):
        m = ClusterMonitor(window=2.0)
        for i in range(100):
            m.on_op_complete(op("read", "k", i * 0.01, i * 0.01 + 0.001))
        for i in range(50):
            m.on_op_complete(op("write", "k", i * 0.02, i * 0.02 + 0.001))
        snap = m.snapshot(1.0)
        assert snap.read_rate == pytest.approx(100.0, rel=0.2)
        assert snap.write_rate == pytest.approx(50.0, rel=0.2)

    def test_latency_ewma(self):
        m = ClusterMonitor(window=2.0)
        for i in range(50):
            m.on_op_complete(op("read", "k", i * 0.1, i * 0.1 + 0.005))
        assert m.read_latency.value == pytest.approx(0.005, rel=0.01)

    def test_failed_ops_excluded_from_latency(self):
        m = ClusterMonitor()
        m.on_op_complete(op("read", "k", 0.0, 99.0, ok=False))
        assert m.read_latency.value == 0.0

    def test_ack_rank_profile(self):
        m = ClusterMonitor()
        # two writes with 3 acks each
        m.on_write_propagated(op("write", "k", 0.0, 0.0, acks=[0.003, 0.001, 0.010]))
        m.on_write_propagated(op("write", "k", 1.0, 1.0, acks=[0.002, 0.012, 0.004]))
        ranks = m.ack_rank_means(recent=False)
        assert len(ranks) == 3
        assert ranks[0] == pytest.approx((0.001 + 0.002) / 2)
        assert ranks[2] == pytest.approx((0.010 + 0.012) / 2)
        # ranks are sorted per write so means are monotone
        assert ranks[0] <= ranks[1] <= ranks[2]

    def test_empty_ack_profile(self):
        m = ClusterMonitor()
        m.on_write_propagated(op("write", "k", 0.0, 0.0, acks=[]))
        assert m.ack_rank_means() == []

    def test_snapshot_structure(self):
        m = ClusterMonitor()
        m.on_op_complete(op("read", "a", 0.0, 0.001))
        m.on_op_complete(op("write", "a", 0.0, 0.001))
        m.on_write_propagated(op("write", "a", 0.0, 0.0, acks=[0.001, 0.002]))
        snap = m.snapshot(0.5)
        assert snap.replication_factor() == 2
        assert snap.key_profile
        windows = snap.propagation_windows(write_level=1)
        assert len(windows) == 2
        assert windows[0] == 0.0  # rank-1 window relative to rank-1 commit

    def test_propagation_windows_levels(self):
        m = ClusterMonitor()
        m.on_write_propagated(
            op("write", "k", 0.0, 0.0, acks=[0.001, 0.005, 0.020])
        )
        snap = m.snapshot(0.1)
        w1 = snap.propagation_windows(1)
        assert w1 == pytest.approx([0.0, 0.004, 0.019])
        w3 = snap.propagation_windows(3)
        assert w3 == pytest.approx([0.0, 0.0, 0.0])

    def test_snapshot_empty_monitor(self):
        snap = ClusterMonitor().snapshot(1.0)
        assert snap.read_rate == 0.0
        assert snap.replication_factor() == 0
        assert snap.propagation_windows(1) == []

    def test_elastic_events_fold_into_the_observer_counters(self, store):
        obs = RunObserver(store, ObsConfig(trace=False, oracles=False))
        for event in (
            {"kind": "scale-out"},
            {"kind": "scale-out"},
            {"kind": "scale-in"},
            {"kind": "migration-start", "ranges": 3},
            {"kind": "migration-complete", "keys_streamed": 10, "bytes_streamed": 900},
            {"kind": "something-else"},
        ):
            obs.on_elastic_event(event)
        assert (obs.scale_outs, obs.scale_ins) == (2, 1)

    def test_monitor_binds_no_txn_or_elastic_hook(self, store):
        # only the run observer reads verdicts and scale events
        store.observe(ClusterMonitor())
        assert store.hooks["on_txn_complete"] == []
        assert store.hooks["on_elastic_event"] == []
        assert len(store.hooks["on_op_complete"]) == 1

    def test_live_against_store(self, store):
        m = ClusterMonitor(window=5.0)
        store.observe(m)
        for i in range(100):
            store.sim.schedule_at(i * 0.01, store.write, "k", 1)
            store.sim.schedule_at(i * 0.01 + 0.002, store.read, "k", 1)
        store.sim.run()
        snap = m.snapshot()
        assert snap.replication_factor() == 3
        # every op reached the rate estimators: 100 arrivals of each kind
        # since the kind's first arrival (writes at 0.0, reads at 0.002)
        assert snap.write_rate == pytest.approx(100 / snap.t)
        assert snap.read_rate == pytest.approx(100 / (snap.t - 0.002))
        # rank means increase with rank and reflect the 10ms WAN hop
        ranks = snap.ack_rank_means
        assert ranks[0] < ranks[-1]
        assert ranks[-1] > 0.01
