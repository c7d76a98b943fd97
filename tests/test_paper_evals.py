"""The E2-E5 evaluation harnesses at a small scale.

``benchmarks/test_paper_shapes.py`` checks the paper's numbers at full
scale. These tests check what must hold at any scale: one row per level
or policy, headline ratios that agree with the bills they are computed
from, and tables that render every row.
"""

import pytest

from repro.experiments.bismar_eval import (
    EfficiencySample,
    efficiency_table,
    run_bismar_eval,
    run_efficiency_samples,
)
from repro.experiments.cost_eval import COST_LEVELS, run_cost_eval
from repro.experiments.model_eval import BehaviorEvalResult, webshop_phases
from repro.experiments.platforms import ec2_cost_platform, grid5000_bismar_platform
from repro.workload.workloads import heavy_read_update


@pytest.fixture(scope="module")
def cost():
    return run_cost_eval(ec2_cost_platform(), ops=1500, seed=3)


@pytest.fixture(scope="module")
def bismar():
    return run_bismar_eval(grid5000_bismar_platform(), ops=1500, seed=3)


@pytest.fixture(scope="module")
def samples():
    plat = grid5000_bismar_platform()
    patterns = {
        "zipfian": heavy_read_update(record_count=200, distribution="zipfian"),
        "uniform": heavy_read_update(record_count=200, distribution="uniform"),
    }
    return run_efficiency_samples(
        plat, patterns=patterns, levels=(1, 3, 5), ops=600, seed=3
    )


class TestCostEval:
    def test_one_run_per_level(self, cost):
        assert list(cost.reports) == list(COST_LEVELS)
        assert list(cost.bills) == list(COST_LEVELS)
        assert set(cost.estimated_stale) == set(COST_LEVELS)
        for est in cost.estimated_stale.values():
            assert 0.0 <= est <= 1.0

    def test_stronger_levels_cost_more(self, cost):
        totals = [cost.bills[name].total for name in COST_LEVELS]
        assert totals == sorted(totals)
        assert totals[0] < totals[-1]

    def test_all_reads_are_never_stale(self, cost):
        assert cost.reports["ALL"].stale_rate_strict == 0.0
        assert cost.reports["ONE"].stale_rate_strict > 0.0

    def test_headline_ratios_match_the_bills(self, cost):
        total_all = cost.bills["ALL"].total
        assert cost.cost_reduction_one_vs_all == pytest.approx(
            1.0 - cost.bills["ONE"].total / total_all
        )
        assert cost.cost_reduction_quorum_vs_all == pytest.approx(
            1.0 - cost.bills["QUORUM"].total / total_all
        )
        assert cost.fresh_reads_at_one_estimated == pytest.approx(
            1.0 - cost.estimated_stale["ONE"]
        )

    def test_table_and_claims(self, cost):
        text = str(cost.table())
        assert "E2:" in text
        for name in COST_LEVELS:
            assert name in text
        assert "+0%" in text  # ALL against itself
        claims = cost.claims()
        assert len(claims) == 3
        assert all("paper:" in c for c in claims)


class TestBismarEval:
    def test_one_run_per_policy(self, bismar):
        assert list(bismar.reports) == ["ONE", "QUORUM", "ALL", "bismar"]
        assert list(bismar.bills) == list(bismar.reports)

    def test_headline_ratios_match_the_runs(self, bismar):
        quorum = bismar.bills["QUORUM"].cost_per_kop
        assert bismar.cost_reduction_vs_quorum == pytest.approx(
            1.0 - bismar.bills["bismar"].cost_per_kop / quorum
        )
        assert bismar.bismar_stale_rate == bismar.reports["bismar"].stale_rate_strict
        assert bismar.one_stale_rate == bismar.reports["ONE"].stale_rate_strict
        assert bismar.reports["ALL"].stale_rate_strict == 0.0

    def test_table_and_claims(self, bismar):
        text = str(bismar.table())
        assert "E4:" in text
        for name in bismar.reports:
            assert name in text
        claims = bismar.claims()
        assert len(claims) == 3
        assert claims[0].startswith("Bismar cost reduction vs QUORUM")


class TestEfficiencySamples:
    def test_one_sample_per_pattern_and_level(self, samples):
        assert [(s.pattern, s.level) for s in samples] == [
            (p, f"n={lv}") for p in ("zipfian", "uniform") for lv in (1, 3, 5)
        ]

    def test_relative_cost_is_normalized_within_a_pattern(self, samples):
        for pattern in ("zipfian", "uniform"):
            rel = [s.relative_cost for s in samples if s.pattern == pattern]
            assert min(rel) == pytest.approx(1.0)
            assert all(r >= 1.0 for r in rel)

    def test_table_marks_one_winner_per_pattern(self, samples):
        rows = efficiency_table(samples).rows
        assert len(rows) == len(samples)
        for pattern in ("zipfian", "uniform"):
            marked = [r for r in rows if r[0] == pattern and r[-1] == "*"]
            assert len(marked) == 1
            best = max(
                (s for s in samples if s.pattern == pattern),
                key=lambda s: s.efficiency,
            )
            assert marked[0][1] == best.level

    def test_first_of_equal_efficiencies_wins(self):
        tied = [
            EfficiencySample("p", f"n={lv}", 0.0, 1.0, 1.0, 0.5) for lv in (1, 2)
        ]
        assert [r[-1] for r in efficiency_table(tied).rows] == ["*", ""]


class TestBehaviorEval:
    def test_webshop_phases(self):
        phases = webshop_phases(key_count=100)
        assert [p.name for p in phases] == ["browse", "checkout-rush", "batch-update"]
        assert all(p.key_count == 100 for p in phases)
        # read-heavy browsing, a mixed rush, a write-heavy batch
        assert [p.read_fraction > 0.5 for p in phases] == [True, True, False]

    def test_table_renders_every_policy(self):
        res = BehaviorEvalResult(
            purity=0.75,
            k=3,
            rows={"behavior": (0.01, 0.002, 3.0), "strong": (0.0, 0.004, 6.0)},
        )
        text = str(res.table())
        assert "k=3" in text
        assert "purity 75%" in text
        assert "behavior" in text and "strong" in text
