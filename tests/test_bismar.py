"""Tests for the consistency-cost efficiency metric and the Bismar engine."""

import pytest

from repro.common.errors import ConfigError
from repro.bismar.efficiency import (
    EfficiencyRow,
    consistency_cost_efficiency,
    rank_levels,
)
from repro.bismar.engine import BismarEngine
from repro.cost.estimator import CostEstimator
from repro.cost.pricing import EC2_US_EAST_2013
from repro.monitor.collector import ClusterMonitor
from repro.stale.dcmodel import DeploymentInfo
from tests.test_harmony import feed_monitor


class TestEfficiencyMetric:
    def test_fresh_cheap_is_best(self):
        assert consistency_cost_efficiency(0.0, 1.0) == 1.0

    def test_staleness_hurts(self):
        assert consistency_cost_efficiency(0.5, 1.0) == 0.5

    def test_cost_hurts(self):
        assert consistency_cost_efficiency(0.0, 2.0) == 0.5

    def test_paper_shape_weak_wins_only_when_acceptable(self):
        # ONE at 60% stale but 40% cheaper loses to QUORUM (paper's E4 logic)
        one = consistency_cost_efficiency(0.61, 1.0)
        quorum = consistency_cost_efficiency(0.0, 1.0 / 0.6)
        assert quorum > one
        # ONE at 5% stale and 40% cheaper wins
        one_ok = consistency_cost_efficiency(0.05, 1.0)
        assert one_ok > quorum

    def test_validation(self):
        with pytest.raises(ConfigError):
            consistency_cost_efficiency(1.5, 1.0)
        with pytest.raises(ConfigError):
            consistency_cost_efficiency(0.5, 0.0)


class TestRankLevels:
    def test_ordering(self):
        rows = rank_levels(
            stale_rates=[0.6, 0.1, 0.0],
            costs_per_op=[1.0, 1.2, 2.0],
        )
        assert isinstance(rows[0], EfficiencyRow)
        assert rows[0].efficiency >= rows[-1].efficiency
        # level 2 (10% stale, 1.2x cost) beats both extremes here
        assert rows[0].read_level == 2

    def test_relative_cost_floor(self):
        rows = rank_levels([0.0, 0.0], [2.0, 4.0])
        by_level = {r.read_level: r for r in rows}
        assert by_level[1].relative_cost == 1.0
        assert by_level[2].relative_cost == 2.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            rank_levels([0.1], [1.0, 2.0])
        with pytest.raises(ConfigError):
            rank_levels([], [])
        with pytest.raises(ConfigError):
            rank_levels([0.1], [0.0])


def make_engine(
    monitor, store=None, stale_cap=None, deployment=None, rf=3, update_interval=0.1
):
    from repro.net.topology import Datacenter, Topology

    topo = Topology([Datacenter("a", "r"), Datacenter("b", "r")], [2, 2])
    estimator = CostEstimator(
        prices=EC2_US_EAST_2013,
        topology=topo,
        rf_total=rf,
        local_replicas=1.5,
        value_size=1000,
    )
    return BismarEngine(
        monitor,
        estimator,
        rf=rf,
        stale_cap=stale_cap,
        update_interval=update_interval,
        deployment=deployment,
    )


class TestBismarEngine:
    def test_validation(self):
        m = ClusterMonitor()
        with pytest.raises(ConfigError):
            make_engine(m, rf=0)
        with pytest.raises(ConfigError):
            BismarEngine(m, None, rf=3, stale_cap=2.0)  # type: ignore[arg-type]

    def test_name(self):
        assert make_engine(ClusterMonitor()).name == "bismar"
        assert "cap=0.05" in make_engine(ClusterMonitor(), stale_cap=0.05).name

    def test_quiet_workload_picks_one(self):
        m = ClusterMonitor(window=10.0)
        feed_monitor(m, write_rate=0.5, acks=[0.001, 0.002, 0.003])
        eng = make_engine(m)
        assert eng.read_level(5.0) == 1  # nothing stale, ONE is cheapest

    def test_rows_cover_all_levels(self):
        m = ClusterMonitor(window=10.0)
        feed_monitor(m, write_rate=50.0, acks=[0.001, 0.01, 0.02])
        eng = make_engine(m)
        rows = eng.evaluate_levels(5.0)
        assert sorted(r.read_level for r in rows) == [1, 2, 3]

    def test_stale_cap_filters(self):
        m = ClusterMonitor(window=10.0)
        # hot single key with a long propagation tail: ONE and TWO exceed a
        # 2% cap, the full-fan-out level stays under it.
        feed_monitor(m, write_rate=30.0, acks=[0.0005, 0.050, 0.100])
        uncapped = make_engine(m)
        capped = make_engine(m, stale_cap=0.02)
        lvl_uncapped = uncapped.read_level(5.0)
        lvl_capped = capped.read_level(5.0)
        assert lvl_capped >= lvl_uncapped
        assert lvl_capped == 3
        est = {r.read_level: r.stale_rate for r in capped.decisions[-1].rows}
        assert est[3] <= 0.02

    def test_cap_unsatisfiable_falls_back_to_best(self):
        m = ClusterMonitor(window=10.0)
        feed_monitor(m, write_rate=500.0, acks=[0.001, 0.050, 0.100])
        eng = make_engine(m, stale_cap=0.0)
        # strict staleness > 0 at every level (in-flight races), so the cap
        # excludes everything; engine must still pick something sensible.
        lvl = eng.read_level(5.0)
        assert 1 <= lvl <= 3

    def test_dc_aware_estimates(self):
        m = ClusterMonitor(window=10.0)
        feed_monitor(m, write_rate=200.0, acks=[0.001, 0.002, 0.011])
        deployment = DeploymentInfo(
            coordinator_share=[0.5, 0.5],
            rf_per_dc=[2, 1],
            delay=[[0.0002, 0.010], [0.010, 0.0002]],
            write_service=0.0005,
            read_service=0.0005,
        )
        eng = make_engine(m, deployment=deployment, stale_cap=0.01)
        lvl = eng.read_level(5.0)
        rows = {r.read_level: r for r in eng.decisions[-1].rows}
        assert rows[3].stale_rate == pytest.approx(0.0, abs=1e-6)
        assert lvl == 3  # only the all-DC level meets a 1% cap here

    def test_level_time_fractions(self):
        m = ClusterMonitor(window=10.0)
        feed_monitor(m, write_rate=1.0, acks=[0.001, 0.002, 0.003])
        eng = make_engine(m)
        for t in (1.0, 2.0, 3.0):
            eng.read_level(t)
        assert sum(eng.level_time_fractions().values()) == pytest.approx(1.0)

    def test_write_level_fixed(self):
        eng = make_engine(ClusterMonitor())
        assert eng.write_level(0.0) == 1
