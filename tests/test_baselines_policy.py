"""Tests for the policy protocol and the related-work baselines."""

import pytest

from repro.common.errors import ConfigError
from repro.cluster.consistency import ConsistencyLevel
from repro.baselines.rationing import ConsistencyRationingPolicy
from repro.baselines.rwratio import ReadWriteRatioPolicy
from repro.monitor.collector import ClusterMonitor
from repro.experiments.runner import named_policy_factory
from repro.policy import ConsistencyPolicy, StaticPolicy
from tests.test_harmony import feed_monitor


class TestStaticPolicy:
    def test_levels(self):
        p = StaticPolicy(1, ConsistencyLevel.QUORUM)
        assert p.read_level(0.0) == 1
        assert p.write_level(0.0) is ConsistencyLevel.QUORUM

    def test_write_defaults_to_read(self):
        p = StaticPolicy(2)
        assert p.write_level(0.0) == 2

    def test_name(self):
        assert StaticPolicy(1, 1, name="custom").name == "custom"
        assert "static" in StaticPolicy(1).name

    def test_protocol_conformance(self, store):
        names = ("eventual", "quorum", "strong")
        for p in (*(named_policy_factory(n)(store) for n in names), StaticPolicy(1)):
            assert isinstance(p, ConsistencyPolicy)

    def test_presets(self, store):
        expected = {
            "eventual": 1,
            "quorum": ConsistencyLevel.QUORUM,
            "strong": ConsistencyLevel.ALL,
        }
        for name, level in expected.items():
            p = named_policy_factory(name)(store)
            assert p.name == name
            assert p.read_level(0.0) == level and p.write_level(0.0) == level
        with pytest.raises(ConfigError, match="unknown policy"):
            named_policy_factory("causal")


class TestConsistencyRationing:
    def test_validation(self):
        m = ClusterMonitor()
        with pytest.raises(ConfigError):
            ConsistencyRationingPolicy(m, threshold=1.5)
        with pytest.raises(ConfigError):
            ConsistencyRationingPolicy(m, conflict_window=0.0)

    def test_no_writes_weak(self):
        m = ClusterMonitor()
        p = ConsistencyRationingPolicy(m, threshold=0.01)
        assert p.read_level(1.0) is ConsistencyLevel.ONE
        assert p.conflict_probability(1.0) == 0.0

    def test_heavy_conflicts_strong(self):
        m = ClusterMonitor(window=10.0)
        feed_monitor(m, write_rate=400.0, acks=[0.001, 0.010, 0.050])
        p = ConsistencyRationingPolicy(m, threshold=0.01, update_interval=0.1)
        assert p.read_level(5.0) is ConsistencyLevel.QUORUM
        assert p.conflict_probability(5.0) > 0.01
        assert p.decisions[-1][1] is True

    def test_threshold_ordering(self):
        m = ClusterMonitor(window=10.0)
        feed_monitor(m, write_rate=50.0, acks=[0.001, 0.010, 0.030])
        loose = ConsistencyRationingPolicy(m, threshold=0.99, update_interval=0.1)
        tight = ConsistencyRationingPolicy(m, threshold=1e-6, update_interval=0.1)
        assert loose.read_level(5.0) is ConsistencyLevel.ONE
        assert tight.read_level(5.0) is ConsistencyLevel.QUORUM

    def test_name(self):
        assert "rationing" in ConsistencyRationingPolicy(ClusterMonitor()).name

    def test_blind_spot_read_staleness(self):
        """The paper's critique: rationing ignores read-side staleness.

        A read-heavy workload with few writes keeps conflict probability low
        -> the policy stays weak, even though a WAN deployment would serve
        plenty of stale reads at ONE.
        """
        m = ClusterMonitor(window=10.0)
        # writes spread thinly over many keys: per-key conflicts are rare,
        # but every read still risks a 200-400 ms propagation window.
        for i in range(50):
            feed_monitor(
                m, write_rate=0.2, acks=[0.001, 0.200, 0.400], key=f"k{i}",
                horizon=5.0,
            )
        p = ConsistencyRationingPolicy(m, threshold=0.10, update_interval=0.1)
        assert p.read_level(5.0) is ConsistencyLevel.ONE  # stays weak


class TestReadWriteRatio:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ReadWriteRatioPolicy(ClusterMonitor(), threshold=0.0)

    def test_read_dominated_goes_weak(self):
        m = ClusterMonitor(window=10.0)
        # feed: 1 write per read pair in feed_monitor -> ratio 1.0
        feed_monitor(m, write_rate=10.0, acks=[0.001, 0.002, 0.003])
        weak = ReadWriteRatioPolicy(m, threshold=0.5, update_interval=0.1)
        strong = ReadWriteRatioPolicy(m, threshold=4.0, update_interval=0.1)
        assert weak.read_level(5.0) is ConsistencyLevel.ONE
        assert strong.read_level(5.0) is ConsistencyLevel.QUORUM

    def test_no_writes_is_infinite_ratio(self):
        m = ClusterMonitor()
        p = ReadWriteRatioPolicy(m, threshold=100.0)
        assert p.read_level(1.0) is ConsistencyLevel.ONE

    def test_decision_log(self):
        m = ClusterMonitor(window=10.0)
        feed_monitor(m, write_rate=10.0, acks=[0.001, 0.002, 0.003])
        p = ReadWriteRatioPolicy(m, threshold=4.0, update_interval=0.1)
        p.read_level(5.0)
        t, weak, ratio = p.decisions[-1]
        assert t == 5.0 and weak is False and ratio == pytest.approx(1.0, rel=0.2)

    def test_name(self):
        assert "rwratio" in ReadWriteRatioPolicy(ClusterMonitor()).name
