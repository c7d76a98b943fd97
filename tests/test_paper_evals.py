"""The E2-E5 evaluation harnesses at a small scale.

``benchmarks/test_paper_shapes.py`` checks the paper's numbers at full
scale. These tests check what must hold at any scale: one row per level
or policy, headline ratios that agree with the bills they are computed
from, and tables that render every row.
"""

import ast
import zlib
from pathlib import Path

import pytest

from repro.experiments import bismar_eval, model_eval
from repro.experiments.bismar_eval import run_bismar_eval, run_efficiency_samples
from repro.experiments.cost_eval import COST_LEVELS, run_cost_eval
from repro.experiments.model_eval import webshop_phases
from repro.experiments.paper import PAPER
from repro.experiments.verbs import VERBS

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def cost():
    return run_cost_eval(ops=1500, seed=3)


@pytest.fixture(scope="module")
def bismar():
    return run_bismar_eval(ops=1500, seed=3)


@pytest.fixture(scope="module")
def samples():
    return run_efficiency_samples(ops=600, seed=3)


PATTERNS = ("zipfian", "uniform", "hotspot")


class TestCostEval:
    def test_one_run_per_level(self, cost):
        assert list(cost.rows) == list(COST_LEVELS)
        for row in cost.rows.values():
            assert 0.0 <= row["estimated_stale_rate"] <= 1.0

    def test_bill_parts_add_up_to_the_total(self, cost):
        for row in cost.rows.values():
            parts = (
                row["cost_instance_usd"]
                + row["cost_storage_usd"]
                + row["cost_network_usd"]
            )
            assert parts == pytest.approx(row["cost_total_usd"])

    def test_stronger_levels_cost_more(self, cost):
        totals = [cost.rows[name]["cost_total_usd"] for name in COST_LEVELS]
        assert totals == sorted(totals)
        assert totals[0] < totals[-1]

    def test_all_reads_are_never_stale(self, cost):
        assert cost.rows["ALL"]["stale_rate_strict"] == 0.0
        assert cost.rows["ONE"]["stale_rate_strict"] > 0.0

    def test_headline_ratios_match_the_bills(self, cost):
        total_all = cost.rows["ALL"]["cost_total_usd"]
        assert cost.claims["cost_reduction_one_vs_all"] == pytest.approx(
            1.0 - cost.rows["ONE"]["cost_total_usd"] / total_all
        )
        assert cost.claims["cost_reduction_quorum_vs_all"] == pytest.approx(
            1.0 - cost.rows["QUORUM"]["cost_total_usd"] / total_all
        )
        assert cost.claims["fresh_reads_at_one_estimated"] == pytest.approx(
            1.0 - cost.rows["ONE"]["estimated_stale_rate"]
        )

    def test_table_and_claims(self, cost):
        text = str(cost.table)
        assert "E2:" in text
        for name in COST_LEVELS:
            assert name in text
        assert "+0%" in text  # ALL against itself
        claims = cost.claim_lines()
        assert len(claims) == 3
        assert all("paper:" in c for c in claims)


class TestBismarEval:
    def test_one_run_per_policy(self, bismar):
        assert list(bismar.rows) == ["ONE", "QUORUM", "ALL", "bismar"]

    def test_headline_ratios_match_the_runs(self, bismar):
        rows = bismar.rows
        quorum = rows["QUORUM"]["cost_per_kop_usd"]
        assert bismar.claims["cost_reduction_vs_quorum"] == pytest.approx(
            1.0 - rows["bismar"]["cost_per_kop_usd"] / quorum
        )
        assert bismar.claims["bismar_stale_rate"] == rows["bismar"]["stale_rate_strict"]
        assert bismar.claims["one_stale_rate"] == rows["ONE"]["stale_rate_strict"]
        assert rows["ALL"]["stale_rate_strict"] == 0.0

    def test_table_and_claims(self, bismar):
        text = str(bismar.table)
        assert "E4:" in text
        for name in bismar.rows:
            assert name in text
        claims = bismar.claim_lines()
        assert len(claims) == 3
        assert claims[0].startswith("Bismar cost reduction vs QUORUM")


class TestEfficiencySamples:
    def test_one_sample_per_pattern_and_level(self, samples):
        levels = bismar_eval.LEVELS
        assert [(r["pattern"], r["level"]) for r in samples.rows.values()] == [
            (p, f"n={lv}") for p in PATTERNS for lv in levels
        ]
        assert list(samples.rows) == [f"{p} n={lv}" for p in PATTERNS for lv in levels]
        assert samples.claims == {}

    def test_relative_cost_is_normalized_within_a_pattern(self, samples):
        for pattern in PATTERNS:
            rel = [
                r["relative_cost"] for r in samples.rows.values()
                if r["pattern"] == pattern
            ]
            assert min(rel) == pytest.approx(1.0)
            assert all(r >= 1.0 for r in rel)

    def test_table_marks_one_winner_per_pattern(self, samples):
        rows = samples.table.rows
        assert len(rows) == len(samples.rows)
        for pattern in PATTERNS:
            marked = [r for r in rows if r[0] == pattern and r[-1] == "*"]
            assert len(marked) == 1
            best = max(
                (r for r in samples.rows.values() if r["pattern"] == pattern),
                key=lambda r: r["efficiency"],
            )
            assert marked[0][1] == best["level"]

    def test_first_of_equal_efficiencies_wins(self, monkeypatch):
        class Outcome:  # every level measures the same: a tie
            def metrics(self):
                return {"stale_rate_strict": 0.0, "cost_per_kop_usd": 1.0}

        monkeypatch.setattr(bismar_eval, "run", lambda spec: Outcome())
        tied = run_efficiency_samples(ops=None, seed=0)
        first = ["*"] + [""] * (len(bismar_eval.LEVELS) - 1)
        assert [r[-1] for r in tied.table.rows] == first * len(PATTERNS)


class TestBehaviorEval:
    def test_webshop_phases(self):
        phases = webshop_phases()
        assert [p.name for p in phases] == ["browse", "checkout-rush", "batch-update"]
        assert all(p.key_count == model_eval.KEY_COUNT for p in phases)
        # read-heavy browsing, a mixed rush, a write-heavy batch
        assert [p.read_fraction > 0.5 for p in phases] == [True, True, False]

    def test_table_renders_every_policy(self):
        def row(stale, kop, p99):
            return {
                "stale_rate": stale, "cost_per_kop_usd": kop,
                "read_latency_p99_ms": p99,
            }

        res = model_eval._behavior_result(
            {
                "behavior": {
                    **row(0.0123456, 0.00123456, 3.14159),
                    "clusters": 3,
                    "phase_purity": 0.75,
                },
                "eventual": row(0.3456789, 0.000987654, 1.23456),
                "quorum": row(0.0, 0.00234567, 4.56789),
                "strong": row(0.0, 0.004, 6.0),
            }
        )
        text = str(res.table)
        assert "k=3" in text
        assert "purity 75%" in text
        assert "behavior" in text and "strong" in text
        # the rendered bytes, pinned: E5 at a real scale is too slow to pin
        # the verb's stdout, so its table is pinned from these fixed rows
        assert zlib.crc32(text.encode()) == 3777606816


class TestPaperTable:
    """Each paper number is written once, in ``repro.experiments.paper``."""

    @pytest.mark.parametrize("fixture", ["cost", "bismar"])
    def test_claim_lines_carry_the_table_values(self, fixture, request):
        res = request.getfixturevalue(fixture)
        lines = res.claim_lines()
        assert len(lines) == len(res.claims)
        for (key, measured), line in zip(res.claims.items(), lines):
            n = PAPER[key]
            fmt = f".{n.digits}%"
            assert line == (
                f"{n.label}: {measured:{fmt}} "
                f"(paper: {n.qualifier}{n.value:{fmt}}{n.suffix})"
            )

    def test_every_experiment_with_a_headline_has_entries(self):
        assert {n.experiment for n in PAPER.values()} == {"E1", "E2", "E3", "E4"}
        for n in PAPER.values():
            assert 0.0 < n.value < 1.0
            assert n.qualifier in ("", "~", "up to ", "down to ", "< ")
            assert n.section in ("§IV-A", "§IV-B")

    def test_no_paper_number_outside_the_table(self):
        table = ROOT / "src" / "repro" / "experiments" / "paper.py"
        quoting = [
            str(path.relative_to(ROOT))
            for path in sorted((ROOT / "src").rglob("*.py"))
            if path != table and "(paper:" in path.read_text(encoding="utf-8")
        ]
        assert quoting == []
        shapes = (ROOT / "benchmarks" / "test_paper_shapes.py").read_text(
            encoding="utf-8"
        )
        assert "# paper:" not in shapes


class TestVerbs:
    """Each verb's operating point is written once, in
    ``repro.experiments.verbs``, and the paper-shape gate runs it."""

    def test_the_gate_runs_each_verb_through_its_definition(self):
        evals = {
            node.name
            for path in (ROOT / "src" / "repro" / "experiments").glob("*_eval.py")
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("run_")
        }
        assert "run_harmony_eval" in evals
        shapes = ast.parse(
            (ROOT / "benchmarks" / "test_paper_shapes.py").read_text(encoding="utf-8")
        )
        named, verbs = set(), set()
        for node in ast.walk(shapes):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.ImportFrom) and node.module:
                named.add(node.module.rpartition(".")[2])
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                    and node.value.id == "VERBS"):
                verbs.add(ast.literal_eval(node.slice))
        assert sorted(named & evals) == []
        assert not any(name.endswith("_eval") for name in named)
        assert verbs == set(VERBS)
