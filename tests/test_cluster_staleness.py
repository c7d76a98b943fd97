"""Tests for the staleness oracle (Figure-1 semantics, both definitions)."""

import pytest

from repro.cluster.staleness import StalenessOracle
from repro.cluster.versions import NONE_VERSION, Version


def v(ts, wid, size=100):
    return Version(ts, wid, size)


class TestOracleWriteTracking:
    def test_expected_version_before_any_write(self):
        o = StalenessOracle()
        committed, strict = o.expected_version("k")
        assert committed is NONE_VERSION and strict is NONE_VERSION

    def test_started_write_raises_strict_bar_only(self):
        o = StalenessOracle()
        w = v(1.0, 1)
        o.note_write_start("k", w, n_replicas=3)
        committed, strict = o.expected_version("k")
        assert committed is NONE_VERSION
        assert strict is w

    def test_ack_raises_committed_bar(self):
        o = StalenessOracle()
        w = v(1.0, 1)
        o.note_write_start("k", w, n_replicas=3)
        o.note_write_acked("k", w)
        committed, strict = o.expected_version("k")
        assert committed is w and strict is w

    def test_out_of_order_acks_keep_newest(self):
        o = StalenessOracle()
        first, second = v(1.0, 1), v(2.0, 2)
        o.note_write_start("k", first, 3)
        o.note_write_start("k", second, 3)
        o.note_write_acked("k", second)
        o.note_write_acked("k", first)  # late ack of older write
        committed, _ = o.expected_version("k")
        assert committed is second

    def test_preload_sets_both_bars(self):
        o = StalenessOracle()
        w = v(0.0, 1)
        o.note_preload("k", w)
        committed, strict = o.expected_version("k")
        assert committed is w and strict is w


class TestOraclePropagation:
    def test_full_propagation_recorded(self):
        o = StalenessOracle()
        w = v(1.0, 1)
        o.note_write_start("k", w, n_replicas=3)
        o.note_replica_applied(w, 1.01)
        o.note_replica_applied(w, 1.02)
        assert o.full_propagation.n == 0  # one replica outstanding
        o.note_replica_applied(w, 1.05)
        assert o.full_propagation.n == 1
        assert o.mean_propagation_time() == pytest.approx(0.05)

    def test_unknown_write_apply_ignored(self):
        o = StalenessOracle()
        o.note_replica_applied(v(1.0, 99), 1.5)  # never started (e.g. repair)
        assert o.full_propagation.n == 0


class TestOracleReads:
    def test_fresh_read(self):
        o = StalenessOracle()
        w = v(1.0, 1)
        o.note_write_start("k", w, 3)
        o.note_write_acked("k", w)
        expected = o.expected_version("k")
        assert o.note_read(expected, w) is False
        assert o.reads == 1 and o.stale_reads == 0

    def test_stale_read_committed(self):
        o = StalenessOracle()
        old, new = v(1.0, 1), v(2.0, 2)
        for w in (old, new):
            o.note_write_start("k", w, 3)
            o.note_write_acked("k", w)
        expected = o.expected_version("k")
        assert o.note_read(expected, old) is True
        assert o.stale_reads == 1
        assert o.staleness_age.mean == pytest.approx(1.0)

    def test_inflight_write_stale_only_strict(self):
        o = StalenessOracle()
        acked, inflight = v(1.0, 1), v(2.0, 2)
        o.note_write_start("k", acked, 3)
        o.note_write_acked("k", acked)
        o.note_write_start("k", inflight, 3)  # started, not acked
        expected = o.expected_version("k")
        stale = o.note_read(expected, acked)
        assert stale is False  # fine under committed definition
        assert o.stale_reads == 0
        assert o.stale_reads_strict == 1  # Figure-1 counts it

    def test_newer_than_bar_is_fresh(self):
        # A read can legally return a version *newer* than the committed bar.
        o = StalenessOracle()
        acked, inflight = v(1.0, 1), v(2.0, 2)
        o.note_write_start("k", acked, 3)
        o.note_write_acked("k", acked)
        o.note_write_start("k", inflight, 3)
        expected = o.expected_version("k")
        assert o.note_read(expected, inflight) is False
        assert o.stale_reads_strict == 0

    def test_none_return_with_no_writes_is_fresh(self):
        o = StalenessOracle()
        expected = o.expected_version("k")
        assert o.note_read(expected, None) is False

    def test_none_return_after_write_is_stale(self):
        o = StalenessOracle()
        w = v(1.0, 1)
        o.note_write_start("k", w, 3)
        o.note_write_acked("k", w)
        assert o.note_read(o.expected_version("k"), None) is True

    def test_rates(self):
        o = StalenessOracle()
        w = v(1.0, 1)
        o.note_write_start("k", w, 1)
        o.note_write_acked("k", w)
        o.note_read(o.expected_version("k"), w)
        o.note_read(o.expected_version("k"), None)
        assert o.stale_rate == pytest.approx(0.5)

    def test_reset_counters_keeps_bars(self):
        o = StalenessOracle()
        w = v(1.0, 1)
        o.note_write_start("k", w, 1)
        o.note_write_acked("k", w)
        o.note_read(o.expected_version("k"), None)
        o.reset_counters()
        assert o.reads == 0 and o.stale_reads == 0
        committed, _ = o.expected_version("k")
        assert committed is w  # bar survived

    def test_empty_rates(self):
        o = StalenessOracle()
        assert o.stale_rate == 0.0
        assert o.stale_rate_strict == 0.0
