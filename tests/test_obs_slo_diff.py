"""Tests for the SLO engine and the cross-run timeline diff.

The load-bearing guarantees:

- :func:`evaluate_slo` is pure arithmetic over recorded samples: the
  error-budget burn math, exact p99, and every objective's pass/fail
  edge are checked on synthetic timelines;
- ``repro report PATH --slo`` honours the documented exit codes:
  0 = all objectives pass, 1 = breach, 2 = an invalid timeline or no
  SLO in any header;
- ``repro diff A B`` pairs runs deterministically and reports metric
  deltas, anomaly presence changes and event-count changes.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.cli import main
from repro.common.errors import ConfigError
from repro.experiments import scenarios
from repro.obs.diff import diff_timelines, pair_timelines, render_diff
from repro.obs.recorder import TIMELINE_SCHEMA, ObsConfig
from repro.obs.slo import SLOSpec, evaluate_slo

CHAOS_ARGS = [
    "--grid", "partition_start=0.05",
    "--grid", "partition_duration=0.08",
    "--ops", "800",
]


def _header(**meta):
    head = {"type": "header", "schema": TIMELINE_SCHEMA, "sample_interval": 0.25}
    head.update({f"meta_{k}": v for k, v in meta.items()})
    return head


def _sample(t, **cols):
    """A sample with every field the observer writes, overridden by ``cols``."""
    record = {
        "type": "sample", "t": t, "level": "r=1", "stale_rate": 0.0,
        "ops_per_s": 0.0, "window_reads": 0, "window_stale": 0,
        "txn_blocked": 0,
    }
    record.update(cols)
    return record


def _result(report, objective):
    (hit,) = [r for r in report.results if r.objective == objective]
    return hit


class TestSLOSpec:
    def test_needs_at_least_one_objective(self):
        with pytest.raises(ConfigError, match="at least one objective"):
            SLOSpec()

    def test_error_budget_range_checked(self):
        with pytest.raises(ConfigError, match="error_budget"):
            SLOSpec(stale_rate_max=0.1, error_budget=1.0)
        with pytest.raises(ConfigError, match="error_budget"):
            SLOSpec(stale_rate_max=0.1, error_budget=-0.1)

    def test_dict_roundtrip_omits_none(self):
        spec = SLOSpec(stale_rate_max=0.05, anomalies_max=0, error_budget=0.1)
        doc = spec.to_dict()
        assert doc == {
            "error_budget": 0.1, "stale_rate_max": 0.05, "anomalies_max": 0,
        }
        assert SLOSpec.from_dict(doc) == spec

    def test_from_dict_rejects_unknown_objectives(self):
        with pytest.raises(ConfigError, match="staleness_max"):
            SLOSpec.from_dict({"staleness_max": 0.1})


class TestEvaluateStaleRate:
    def _timeline(self, stales):
        # four 1s-windows, 100 reads each; `stales` gives per-window counts
        records = [_header()]
        for i, stale in enumerate(stales):
            records.append(
                _sample(float(i + 1), window_reads=100, window_stale=stale)
            )
        return records

    def test_clean_run_passes_with_zero_burn(self):
        report = evaluate_slo(
            self._timeline([0, 1, 0, 2]), SLOSpec(stale_rate_max=0.05)
        )
        hit = _result(report, "stale_rate")
        assert not hit.breached
        assert hit.burn == 0.0
        assert hit.observed == pytest.approx(0.02)  # worst window
        assert report.ok

    def test_burn_is_breach_fraction_over_budget(self):
        # 1 breaching window of 4 -> 25% of exposed time; budget 50%
        report = evaluate_slo(
            self._timeline([0, 90, 0, 0]),
            SLOSpec(stale_rate_max=0.5, error_budget=0.5),
        )
        hit = _result(report, "stale_rate")
        assert not hit.breached
        assert hit.burn == pytest.approx(0.5)

    def test_over_budget_breaches(self):
        # 3 of 4 windows breaching vs a 5% budget
        report = evaluate_slo(
            self._timeline([80, 90, 100, 0]), SLOSpec(stale_rate_max=0.5)
        )
        hit = _result(report, "stale_rate")
        assert hit.breached
        assert hit.burn == pytest.approx(0.75 / 0.05)
        assert not report.ok

    def test_zero_budget_makes_any_breach_infinite_burn(self):
        report = evaluate_slo(
            self._timeline([0, 90, 0, 0]),
            SLOSpec(stale_rate_max=0.5, error_budget=0.0),
        )
        hit = _result(report, "stale_rate")
        assert hit.breached
        assert math.isinf(hit.burn)

    def test_readless_windows_carry_no_exposure(self):
        records = [
            _header(),
            _sample(1.0, window_reads=0, window_stale=0),
            _sample(2.0, window_reads=100, window_stale=1),
        ]
        hit = _result(
            evaluate_slo(records, SLOSpec(stale_rate_max=0.05)), "stale_rate"
        )
        assert "1s" in hit.detail  # only the second window counts

    def test_no_reads_at_all_is_not_applicable(self):
        records = [_header(), _sample(1.0, window_reads=0, window_stale=0)]
        hit = _result(
            evaluate_slo(records, SLOSpec(stale_rate_max=0.05)), "stale_rate"
        )
        assert not hit.breached
        assert hit.observed is None


class TestEvaluateOtherObjectives:
    def test_read_p99_is_worst_dc(self):
        records = [_header()]
        for i in range(10):
            records.append(
                _sample(
                    float(i + 1),
                    dc0_read_lat=0.010,  # 10ms steady
                    dc1_read_lat=0.010 + (0.290 if i == 9 else 0.0),
                )
            )
        report = evaluate_slo(records, SLOSpec(read_p99_ms_max=100.0))
        hit = _result(report, "read_p99_ms")
        assert hit.breached
        assert hit.observed == pytest.approx(300.0)
        assert "dc0=10ms" in hit.detail and "dc1=300ms" in hit.detail

    def test_abort_rate_reads_final_counters(self):
        records = [
            _header(),
            _sample(1.0, txn_commits=10, txn_aborts=0),
            _sample(2.0, txn_commits=90, txn_aborts=10),
        ]
        hit = _result(
            evaluate_slo(records, SLOSpec(abort_rate_max=0.05)), "abort_rate"
        )
        assert hit.breached
        assert hit.observed == pytest.approx(0.1)

    def test_abort_rate_vacuous_without_txns(self):
        records = [_header(), _sample(1.0)]
        hit = _result(
            evaluate_slo(records, SLOSpec(abort_rate_max=0.05)), "abort_rate"
        )
        assert not hit.breached and hit.observed is None

    def test_blocked_txn_time_sums_in_doubt_windows(self):
        records = [
            _header(),
            _sample(1.0, txn_blocked=0),
            _sample(2.0, txn_blocked=2, txn_in_doubt=0),
            _sample(3.5, txn_blocked=1),
            _sample(4.0, txn_blocked=0, txn_in_doubt=3),
        ]
        hit = _result(
            evaluate_slo(records, SLOSpec(blocked_txn_time_max=2.0)),
            "blocked_txn_time",
        )
        assert hit.breached
        assert hit.observed == pytest.approx(2.5)  # (1,2] + (2,3.5]
        assert hit.detail == "windows with blocked participants"

    def test_cost_ceiling_reads_header_meta(self):
        records = [_header(cost_total_usd=12.5), _sample(1.0)]
        hit = _result(
            evaluate_slo(records, SLOSpec(cost_ceiling_usd=10.0)),
            "cost_ceiling_usd",
        )
        assert hit.breached and hit.observed == 12.5
        missing = [_header(), _sample(1.0)]
        hit = _result(
            evaluate_slo(missing, SLOSpec(cost_ceiling_usd=10.0)),
            "cost_ceiling_usd",
        )
        assert not hit.breached and hit.observed is None

    def test_anomalies_counts_detections_not_ends(self):
        records = [
            _header(),
            {"type": "anomaly", "t": 0.5, "oracle": "quorum-loss",
             "phase": "start"},
            {"type": "anomaly", "t": 0.9, "oracle": "quorum-loss",
             "phase": "end"},
            {"type": "anomaly", "t": 1.0, "oracle": "monotonic-read",
             "phase": "point", "key": "k"},
            _sample(1.5),
        ]
        hit = _result(
            evaluate_slo(records, SLOSpec(anomalies_max=0)), "anomalies"
        )
        assert hit.breached
        assert hit.observed == 2.0  # start + point; end is not a detection
        assert "quorum-loss=1" in hit.detail

    def test_render_names_breaches(self):
        records = [_header(), _sample(1.0, window_reads=10, window_stale=9)]
        report = evaluate_slo(
            records, SLOSpec(stale_rate_max=0.1, anomalies_max=5)
        )
        text = report.render("run-42")
        assert "SLO verdict — run-42" in text
        assert "FAIL stale_rate" in text
        assert "PASS anomalies" in text
        assert "verdict: BREACH (1/2 objectives failed)" in text


class TestScenarioSLOWiring:
    def test_chaos_scenario_declares_its_gate(self):
        spec = scenarios.get("geo-partition-chaos").slo
        assert spec is not None
        assert spec.anomalies_max == 0

    def test_scenarios_json_carries_slo(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        by_name = {e["name"]: e for e in json.loads(capsys.readouterr().out)}
        chaos = by_name["geo-partition-chaos"]
        assert chaos["slo"]["anomalies_max"] == 0
        assert by_name["geo-replication"]["slo"] is None

    def test_scenario_run_stamps_slo_into_header(self, tmp_path):
        run = scenarios.get("single-dc-ycsb-a").run(
            seed=5, ops=400, obs=ObsConfig(out_dir=str(tmp_path / "run"))
        )
        header = run.obs.timeline_records()[0]
        assert header["meta_scenario"] == "single-dc-ycsb-a"
        assert SLOSpec.from_dict(header["meta_slo"]) == scenarios.get(
            "single-dc-ycsb-a"
        ).slo
        assert header["meta_cost_total_usd"] > 0


class TestReportSloCli:
    def _sweep(self, tmp_path, scenario, extra=(), seed=3):
        out = str(tmp_path / f"{scenario}-{seed}")
        argv = [
            "sweep", "--scenario", scenario, "--obs", "--jobs", "1",
            "--seed", str(seed), "--out", out, *extra,
        ]
        assert main(argv) == 0
        return out

    def test_breaching_chaos_sweep_exits_1(self, tmp_path, capsys):
        out = self._sweep(tmp_path, "geo-partition-chaos", CHAOS_ARGS)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["report", out, "--slo"])
        assert exc.value.code == 1
        text = capsys.readouterr().out
        assert "FAIL anomalies" in text
        assert "verdict: BREACH" in text

    def test_clean_sweep_exits_0(self, tmp_path, capsys):
        out = self._sweep(tmp_path, "single-dc-ycsb-a", ["--ops", "400"])
        capsys.readouterr()
        assert main(["report", out, "--slo"]) == 0
        text = capsys.readouterr().out
        assert "verdict: OK" in text

    def test_no_slo_anywhere_exits_2(self, tmp_path, capsys):
        scenarios.get("harmony-vs-static").run(
            seed=5, ops=400, obs=ObsConfig(out_dir=str(tmp_path / "run"))
        )
        assert main(["report", str(tmp_path), "--slo"]) == 2
        captured = capsys.readouterr()
        assert "no SLO" in captured.out
        assert "error:" in captured.err

    def _write(self, tmp_path, records):
        path = tmp_path / "run" / "timeline.jsonl"
        path.parent.mkdir()
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return str(path)

    def test_scenario_name_without_meta_slo_exits_2(self, tmp_path, capsys):
        # The SLO comes from the header only; the registry is not consulted
        # even when the named scenario declares one.
        assert scenarios.get("geo-partition-chaos").slo is not None
        path = self._write(
            tmp_path,
            [_header(scenario="geo-partition-chaos"), _sample(1.0)],
        )
        assert main(["report", path, "--slo"]) == 2
        captured = capsys.readouterr()
        assert "no SLO" in captured.out
        assert "carries an SLO" in captured.err

    def test_samples_without_window_reads_exit_2(self, tmp_path, capsys):
        sample = _sample(1.0, stale_rate=0.3)
        del sample["window_reads"]
        path = self._write(
            tmp_path,
            [_header(slo={"stale_rate_max": 0.1, "error_budget": 0.0}), sample],
        )
        assert main(["report", path, "--slo"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "window_reads" in captured.err
        assert "Traceback" not in captured.err
        assert "SLO verdict" not in captured.out


class TestDiffTimelines:
    def _records(self, rate, crashes=0, anomaly=False):
        records = [
            _header(),
            _sample(1.0, stale_rate=rate, ops_per_s=100.0),
            _sample(2.0, stale_rate=rate, ops_per_s=110.0),
        ]
        for i in range(crashes):
            records.insert(
                2, {"type": "event", "t": 1.5, "kind": "node-crash", "node": i}
            )
        if anomaly:
            records.append(
                {"type": "anomaly", "t": 2.0, "oracle": "stale-burst",
                 "phase": "start", "window_rate": rate}
            )
        return records

    def test_metric_deltas_and_horizon(self):
        diff = diff_timelines(self._records(0.1), self._records(0.3))
        assert diff["horizon"] == 2.0
        by_metric = {m["metric"]: m for m in diff["metrics"]}
        stale = by_metric["stale_rate"]
        assert stale["mean_a"] == pytest.approx(0.1)
        assert stale["delta_mean"] == pytest.approx(0.2)
        assert stale["final_b"] == pytest.approx(0.3)

    def test_longer_run_is_truncated_to_common_horizon(self):
        longer = self._records(0.1) + [
            _sample(10.0, stale_rate=0.9, ops_per_s=1.0)
        ]
        diff = diff_timelines(self._records(0.1), longer)
        assert diff["horizon"] == 2.0
        assert diff["duration_b"] == 10.0
        by_metric = {m["metric"]: m for m in diff["metrics"]}
        # the t=10 outlier must not leak into B's mean
        assert by_metric["stale_rate"]["mean_b"] == pytest.approx(0.1)

    def test_anomaly_appearance_is_named(self):
        diff = diff_timelines(
            self._records(0.1), self._records(0.3, anomaly=True)
        )
        (row,) = diff["anomalies"]
        assert row == {
            "oracle": "stale-burst", "a": 0, "b": 1, "delta": 1,
            "note": "appeared",
        }
        back = diff_timelines(
            self._records(0.3, anomaly=True), self._records(0.1)
        )
        assert back["anomalies"][0]["note"] == "resolved"

    def test_event_count_deltas(self):
        diff = diff_timelines(
            self._records(0.1, crashes=1), self._records(0.1, crashes=3)
        )
        (row,) = diff["events"]
        assert row == {"kind": "node-crash", "a": 1, "b": 3, "delta": 2}

    def test_identical_runs_diff_to_zero(self):
        diff = diff_timelines(self._records(0.1), self._records(0.1))
        assert all(m["delta_mean"] == 0.0 for m in diff["metrics"])
        assert diff["anomalies"] == []

    def test_render_is_deterministic_text(self):
        diff = diff_timelines(
            self._records(0.1, crashes=1), self._records(0.3, anomaly=True)
        )
        text_a = render_diff(diff, label="run")
        text_b = render_diff(diff, label="run")
        assert text_a == text_b
        assert "diff run: aligned to t<=2" in text_a
        assert "appeared" in text_a
        assert "node-crash" in text_a


class TestDiffPairing:
    def test_single_files_pair_directly(self, tmp_path):
        for side in ("a", "b"):
            d = tmp_path / side / "run"
            d.mkdir(parents=True)
            (d / "timeline.jsonl").write_text(
                json.dumps(_header()) + "\n"
            )
        pairs, only_a, only_b = pair_timelines(
            str(tmp_path / "a"), str(tmp_path / "b")
        )
        assert [p[0] for p in pairs] == ["run"]
        assert only_a == only_b == []

    def test_unmatched_dirs_are_reported(self, tmp_path):
        layout = {"a": ("run1", "run2"), "b": ("run2", "run3")}
        for side, runs in layout.items():
            for run in runs:
                d = tmp_path / side / run
                d.mkdir(parents=True)
                (d / "timeline.jsonl").write_text(json.dumps(_header()) + "\n")
        pairs, only_a, only_b = pair_timelines(
            str(tmp_path / "a"), str(tmp_path / "b")
        )
        assert [p[0] for p in pairs] == ["run2"]
        assert only_a == ["run1"] and only_b == ["run3"]

    def test_missing_side_is_a_clean_error(self, tmp_path):
        d = tmp_path / "a" / "run"
        d.mkdir(parents=True)
        (d / "timeline.jsonl").write_text(json.dumps(_header()) + "\n")
        with pytest.raises(ConfigError, match="no (such file|timeline)"):
            pair_timelines(str(tmp_path / "a"), str(tmp_path / "b"))


class TestDiffCli:
    @pytest.fixture()
    def two_sweeps(self, tmp_path):
        # same scenario+grid (same artifact labels), different seeds
        outs = []
        for seed in (3, 4):
            out = str(tmp_path / f"s{seed}")
            assert main(
                [
                    "sweep", "--scenario", "single-dc-ycsb-a",
                    "--grid", "tolerance=0.2,0.4",
                    "--obs", "--jobs", "1", "--ops", "400",
                    "--seed", str(seed), "--out", out,
                ]
            ) == 0
        return str(tmp_path / "s3"), str(tmp_path / "s4")

    def test_diff_text_pairs_runs(self, two_sweeps, capsys):
        a, b = two_sweeps
        capsys.readouterr()
        assert main(["diff", a, b]) == 0
        out = capsys.readouterr().out
        assert out.count("diff single-dc-ycsb-a-") == 2
        assert "sample metrics" in out

    def test_diff_json_is_machine_readable(self, two_sweeps, capsys):
        a, b = two_sweeps
        capsys.readouterr()
        assert main(["diff", a, b, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["pairs"]) == 2
        assert doc["only_a"] == [] and doc["only_b"] == []
        first = doc["pairs"][0]["diff"]
        assert {"horizon", "metrics", "anomalies", "events"} <= set(first)

    def test_diff_missing_path_is_clean_error(self, tmp_path, capsys):
        assert main(["diff", str(tmp_path / "x"), str(tmp_path / "y")]) == 2
        assert "error:" in capsys.readouterr().err
