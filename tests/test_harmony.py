"""Tests for the Harmony adaptive-consistency engine."""

import pytest

from repro.common.errors import ConfigError
from repro.cluster.coordinator import OpResult
from repro.harmony.engine import HarmonyEngine
from repro.monitor.collector import ClusterMonitor
from repro.stale.dcmodel import DeploymentInfo, forecast_stale


def feed_monitor(monitor, write_rate, acks, horizon=5.0, key="hot"):
    """Synthesize a steady write stream with a fixed ack profile."""
    t = 0.0
    dt = 1.0 / write_rate
    while t < horizon:
        r = OpResult("write", key, t, "n=1")
        r.t_end = t + acks[0]
        r.ok = True
        r.ack_delays = list(acks)
        r.replicas_contacted = len(acks)
        monitor.on_op_complete(r)
        monitor.on_write_propagated(r)
        # a matching read stream
        rr = OpResult("read", key, t, "n=1")
        rr.t_end = t + 0.001
        rr.ok = True
        monitor.on_op_complete(rr)
        t += dt


def adaptive_engine(kind, monitor, update_interval=1.0):
    """A Harmony or a Bismar engine at rf=3: both run one refresh loop."""
    if kind == "harmony":
        return HarmonyEngine(monitor, tolerance=0.1, rf=3, update_interval=update_interval)
    from tests.test_bismar import make_engine  # test_bismar imports this module

    return make_engine(monitor, update_interval=update_interval)


class TestValidation:
    def test_bounds(self):
        m = ClusterMonitor()
        with pytest.raises(ConfigError):
            HarmonyEngine(m, tolerance=1.5, rf=3)
        with pytest.raises(ConfigError):
            HarmonyEngine(m, tolerance=0.1, rf=0)
        with pytest.raises(ConfigError):
            HarmonyEngine(m, tolerance=0.1, rf=3, write_level=4)
        with pytest.raises(ConfigError):
            HarmonyEngine(m, tolerance=0.1, rf=3, update_interval=0.0)

    def test_name(self):
        eng = HarmonyEngine(ClusterMonitor(), tolerance=0.05, rf=3)
        assert eng.name == "harmony(0.05)"


class TestDecisions:
    def test_cold_start_picks_one(self):
        eng = HarmonyEngine(ClusterMonitor(), tolerance=0.1, rf=3)
        assert eng.read_level(0.0) == 1  # no writes observed -> nothing stale

    def test_write_level_fixed(self):
        eng = HarmonyEngine(ClusterMonitor(), tolerance=0.1, rf=3, write_level=2)
        assert eng.write_level(0.0) == 2

    def test_low_write_rate_stays_weak(self):
        m = ClusterMonitor(window=10.0)
        feed_monitor(m, write_rate=0.5, acks=[0.001, 0.002, 0.003])
        eng = HarmonyEngine(m, tolerance=0.10, rf=3, update_interval=0.1)
        assert eng.read_level(5.0) == 1

    def test_hot_workload_escalates(self):
        m = ClusterMonitor(window=10.0)
        # 200 writes/s to one key with 50 ms propagation tail
        feed_monitor(m, write_rate=200.0, acks=[0.001, 0.030, 0.050])
        eng = HarmonyEngine(m, tolerance=0.05, rf=3, update_interval=0.1)
        level = eng.read_level(5.0)
        assert level >= 2

    def test_tolerance_ordering(self):
        # looser tolerance must never pick a stronger level
        m = ClusterMonitor(window=10.0)
        feed_monitor(m, write_rate=100.0, acks=[0.001, 0.020, 0.040])
        levels = {}
        for tol in (0.01, 0.10, 0.50):
            eng = HarmonyEngine(m, tolerance=tol, rf=3, update_interval=0.1)
            levels[tol] = eng.read_level(5.0)
        assert levels[0.01] >= levels[0.10] >= levels[0.50]

    def test_estimates_monotone_in_level(self):
        m = ClusterMonitor(window=10.0)
        feed_monitor(m, write_rate=100.0, acks=[0.001, 0.020, 0.040])
        eng = HarmonyEngine(m, tolerance=0.1, rf=3)
        est = eng.estimate_all_levels(5.0)
        assert len(est) == 3
        for a, b in zip(est, est[1:]):
            assert a >= b - 1e-12

    @pytest.mark.parametrize("kind", ["harmony", "bismar"])
    def test_update_interval_caches_decision(self, kind):
        m = ClusterMonitor(window=10.0)
        feed_monitor(m, write_rate=10.0, acks=[0.001, 0.002, 0.003])
        eng = adaptive_engine(kind, m, update_interval=5.0)
        eng.read_level(0.0)
        n = len(eng.decisions)
        eng.read_level(1.0)  # within interval: no new decision
        assert len(eng.decisions) == n
        eng.read_level(6.0)
        assert len(eng.decisions) == n + 1

    def test_decision_log_contents(self):
        m = ClusterMonitor(window=10.0)
        feed_monitor(m, write_rate=50.0, acks=[0.001, 0.010, 0.020])
        eng = HarmonyEngine(m, tolerance=0.2, rf=3, update_interval=0.1)
        eng.read_level(5.0)
        d = eng.decisions[-1]
        assert d.read_level >= 1
        assert len(d.estimates) == 3
        assert d.write_rate > 0

    @pytest.mark.parametrize("kind", ["harmony", "bismar"])
    def test_level_time_fractions(self, kind):
        m = ClusterMonitor(window=10.0)
        feed_monitor(m, write_rate=1.0, acks=[0.001, 0.002, 0.003])
        eng = adaptive_engine(kind, m, update_interval=0.1)
        for t in (1.0, 2.0, 3.0):
            eng.read_level(t)
        fracs = eng.level_time_fractions()
        assert sum(fracs.values()) == pytest.approx(1.0)
        assert adaptive_engine(kind, ClusterMonitor()).level_time_fractions() == {}

    def test_padded_windows_when_rf_exceeds_profile(self):
        m = ClusterMonitor(window=10.0)
        feed_monitor(m, write_rate=50.0, acks=[0.001, 0.010])  # only 2 acks seen
        eng = HarmonyEngine(m, tolerance=0.01, rf=5, update_interval=0.1)
        est = eng.estimate_all_levels(5.0)
        assert len(est) == 5  # padded to rf


class TestDcAwareMode:
    def _deployment(self):
        return DeploymentInfo(
            coordinator_share=[0.5, 0.5],
            rf_per_dc=[2, 1],
            delay=[[0.0002, 0.010], [0.010, 0.0002]],
            write_service=0.0005,
            read_service=0.0005,
        )

    def test_dc_aware_estimates_used(self):
        m = ClusterMonitor(window=10.0)
        feed_monitor(m, write_rate=200.0, acks=[0.001, 0.002, 0.011])
        eng = HarmonyEngine(
            m, tolerance=0.01, rf=3, update_interval=0.1,
            deployment=self._deployment(),
        )
        est = eng.estimate_all_levels(5.0)
        assert len(est) == 3
        # level 3 contacts both DCs -> essentially fresh
        assert est[2] == pytest.approx(0.0, abs=1e-6)
        assert est[0] > est[2]

    def test_dc_aware_changes_decision(self):
        m = ClusterMonitor(window=10.0)
        feed_monitor(m, write_rate=200.0, acks=[0.001, 0.002, 0.011])
        plain = HarmonyEngine(m, tolerance=0.02, rf=3, update_interval=0.1)
        aware = HarmonyEngine(
            m, tolerance=0.02, rf=3, update_interval=0.1,
            deployment=self._deployment(),
        )
        # both produce valid levels; decisions may differ but must satisfy
        # their own estimates
        for eng in (plain, aware):
            lvl = eng.read_level(5.0)
            est = eng.decisions[-1].estimates
            if lvl < eng.rf:
                assert est[lvl - 1] <= eng.tolerance


class TestEndToEnd:
    def test_harmony_respects_tolerance_in_live_run(self, store):
        """Full loop: monitor + engine + store, measured staleness bounded."""
        from repro.workload.client import WorkloadRunner
        from repro.workload.workloads import heavy_read_update

        monitor = ClusterMonitor(window=1.0)
        store.add_listener(monitor)
        eng = HarmonyEngine(
            monitor, tolerance=0.10, rf=3, update_interval=0.2,
            deployment=DeploymentInfo.from_store(store),
        )
        rep = WorkloadRunner(
            store,
            heavy_read_update(record_count=50),
            policy=eng,
            n_clients=8,
            ops_total=6000,
            seed=3,
            warmup_fraction=0.3,
        ).run()
        assert rep.stale_rate_strict <= 0.10 + 0.05  # tolerance + margin
        assert len(eng.decisions) > 3

    def test_one_snapshot_per_decision(self, monkeypatch):
        """Each decision's estimates and rates come from one monitor snapshot."""
        import repro

        taken = []
        snapshot = ClusterMonitor.snapshot

        def counted(monitor, now=None):
            taken.append(snapshot(monitor, now))
            return taken[-1]

        monkeypatch.setattr(ClusterMonitor, "snapshot", counted)
        out = repro.run(repro.RunSpec(
            platform=repro.grid5000_harmony_platform(),
            policy=repro.harmony_factory(0.02, update_interval=0.01),
            ops=2000,
            seed=5,
        ))
        eng = out.policy
        assert len(eng.decisions) > 3
        assert len(taken) == len(eng.decisions)
        for decision, snap in zip(eng.decisions, taken):
            assert snap.t == decision.t
            assert decision.read_rate == snap.read_rate
            assert decision.write_rate == snap.write_rate
            assert decision.estimates == forecast_stale(snap, eng.rf, 1, eng.deployment)
        assert len(taken) == len(eng.decisions)  # re-estimating took none
