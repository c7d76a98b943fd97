"""Tests for the observability subsystem: samples, events, traces, timelines.

The load-bearing guarantees:

- attaching a :class:`RunObserver` never changes a run's results (the
  observer-effect test compares full reports with observability on/off);
- with observability off, no observer object or fault hook exists
  (the zero-overhead path);
- sweep artifacts are byte-identical across ``--jobs`` settings;
- failure injection is observable as typed events
  (``FailureInjector.events`` + the store's ``on_fault`` channel).
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.cluster.failures import FailureInjector
from repro.common.errors import ConfigError
from repro.experiments import scenarios
from repro.experiments.runner import harmony_factory, static_factory
from repro.facade import RunSpec, run
from repro.experiments.sweep import SweepRunner, plan_sweep
from repro.obs.events import EventBus, ObsEvent
from repro.obs.recorder import TIMELINE_SCHEMA, ObsConfig, RunObserver
from repro.obs.report import (
    find_timelines,
    load_timeline,
    render_text,
    samples_csv,
    validate_timeline,
)
from repro.obs import recorder as recorder_mod
from repro.obs import trace as trace_mod
from repro.obs.trace import Tracer

TINY_OPS = 400


class TestEventBus:
    def test_emit_without_subscribers_is_noop(self):
        bus = EventBus()
        assert not bus.active
        bus.emit(ObsEvent(0.0, "node-crash", {"node": 1}))  # must not raise

    def test_subscribe(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        assert bus.active
        event = ObsEvent(1.5, "partition", {"dc_a": 0, "dc_b": 1})
        bus.emit(event)
        assert seen == [event]

    def test_event_record_shape(self):
        record = ObsEvent(2.0, "node-crash", {"node": 3, "dc": 0}).to_record()
        assert record == {
            "type": "event",
            "t": 2.0,
            "kind": "node-crash",
            "node": 3,
            "dc": 0,
        }


class TestTracer:
    def test_span_emits_balanced_async_pair(self):
        tr = Tracer()
        tr.span("op", "op1", "read@r=1", 0.001, 0.002)
        events = tr.to_chrome()["traceEvents"]
        assert [e["ph"] for e in events] == ["b", "e"]
        assert all(e["cat"] == "op" and e["id"] == "op1" for e in events)
        assert events[0]["ts"] == 1000.0 and events[1]["ts"] == 2000.0

    def test_instant_is_global_scope(self):
        tr = Tracer()
        tr.instant("node-crash", 1.0, cat="failure", args={"node": 2})
        (ev,) = tr.to_chrome()["traceEvents"]
        assert ev["ph"] == "i" and ev["s"] == "g" and ev["cat"] == "failure"

    def test_cap_counts_drops(self, monkeypatch):
        monkeypatch.setattr(trace_mod, "MAX_EVENTS", 2)
        tr = Tracer()
        for i in range(5):
            tr.instant(f"m{i}", float(i))
        assert len(tr) == 2
        assert tr.dropped == 3
        assert tr.to_chrome()["otherData"]["dropped"] == 3

    def test_json_is_deterministic(self):
        def build():
            tr = Tracer()
            tr.span("txn", "txn1", "prepare", 0.0, 0.5)
            tr.instant("decide:committed", 0.5, cat="txn")
            return tr.to_json({"meta_seed": 7})

        assert build() == build()


def _bare_observer(store, interval: float) -> RunObserver:
    return RunObserver(store, ObsConfig(sample_interval=interval, trace=False))


def _sample_times(observer: RunObserver):
    return [r["t"] for r in observer.timeline_records() if r["type"] == "sample"]


class TestSampleTick:
    def test_bare_observer_writes_the_one_oracle_layout(self, store):
        # No switch turns the oracles off, so every observer writes the
        # anomaly counters and the txn_blocked signal the readers index.
        assert "oracles" not in {f.name for f in dataclasses.fields(ObsConfig)}
        obs = _bare_observer(store, 0.5)
        store.sim.run(until=1.1)
        obs.finish()
        records = obs.timeline_records()
        assert records[0]["anomalies"] == {}
        assert records[0]["anomalies_suppressed"] == 0
        samples = [r for r in records if r["type"] == "sample"]
        assert len(samples) == 3
        assert all(s["txn_blocked"] == 0 for s in samples)
        assert validate_timeline(records) == []

    def test_ticks_at_interval(self, store):
        obs = _bare_observer(store, 0.5)
        # ticks are self-perpetuating, so bound the run by a horizon (the
        # run pipeline always ends with `finish()`)
        store.sim.run(until=2.1)
        assert _sample_times(obs) == [0.5, 1.0, 1.5, 2.0]

    def test_finish_disarms(self, store):
        obs = _bare_observer(store, 0.5)
        store.sim.run(until=1.1)
        obs.finish()  # the closing sample at the cutoff
        store.sim.schedule_at(5.0, lambda: None)
        store.sim.run()
        assert _sample_times(obs) == [0.5, 1.0, 1.1]

    def test_max_samples_cap(self, store, monkeypatch):
        monkeypatch.setattr(recorder_mod, "MAX_SAMPLES", 3)
        obs = _bare_observer(store, 0.1)
        store.sim.schedule_at(10.0, lambda: None)
        store.sim.run()
        assert len(_sample_times(obs)) == 3
        # the cap counts ticks: the closing sample still lands
        obs.finish()
        assert _sample_times(obs)[-1] == 10.0
        assert obs.header()["samples"] == 4
        assert obs.header()["max_samples"] == 3

    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigError):
            ObsConfig(sample_interval=0.0)


class TestFailureInjectorEvents:
    def test_structured_events_record_every_action(self, store):
        inj = FailureInjector(store)
        inj.crash_node(2, at=1.0, duration=0.5)
        inj.partition(0, 1, at=2.0)
        store.sim.schedule_at(3.0, lambda: None)
        store.sim.run()
        kinds = [e.kind for e in inj.events]
        assert kinds == ["node-crash", "node-recover", "partition"]
        assert inj.events[0].data["node"] == 2
        assert [e.t for e in inj.events] == [1.0, 1.5, 2.0]
        assert inj.events[2].data == {"dc_a": 0, "dc_b": 1}
        # the string-log shim is gone: events are the only record
        assert not hasattr(inj, "log")

    def test_events_fired_on_the_fault_channel(self, simple_store):
        seen = []

        class Faults:
            on_fault = seen.append

        simple_store.observe(Faults())
        inj = FailureInjector(simple_store)
        inj.crash_node(1, at=0.5)
        simple_store.sim.run()
        assert [e.kind for e in seen] == ["node-crash"]

    def test_fresh_store_has_no_fault_hooks(self, simple_store):
        # the zero-overhead invariant: nobody observes unless asked to
        assert simple_store.hooks["on_fault"] == []


def _run_scenario(name: str, obs=None, **kwargs):
    return scenarios.get(name).run(seed=5, ops=TINY_OPS, obs=obs, **kwargs)


class TestRunObserver:
    def test_observer_never_changes_results(self):
        plain = _run_scenario("geo-replication")
        observed = _run_scenario("geo-replication", obs=ObsConfig())
        assert observed.report.ops_completed == plain.report.ops_completed
        assert observed.report.stale_rate == plain.report.stale_rate
        assert observed.report.read_latency_p99 == plain.report.read_latency_p99
        assert observed.report.duration == plain.report.duration

    def test_disabled_path_constructs_nothing(self):
        run = _run_scenario("geo-replication")
        assert run.obs is None

    def test_timeline_is_valid_and_chronological(self):
        run = _run_scenario("harmony-vs-static", obs=ObsConfig(sample_interval=0.02))
        records = run.obs.timeline_records()
        assert records[0]["type"] == "header"
        assert records[0]["schema"] == TIMELINE_SCHEMA
        assert validate_timeline(records) == []
        times = [r["t"] for r in records[1:]]
        assert times == sorted(times)
        samples = [r for r in records if r["type"] == "sample"]
        assert samples and any(s["ops_per_s"] > 0 for s in samples)
        # Harmony explains its decisions
        assert any(r["type"] == "explain" for r in records)

    def test_trace_records_op_spans(self):
        run = _run_scenario(
            "geo-replication", obs=ObsConfig(trace_sample_every=8)
        )
        events = run.obs.tracer.to_chrome()["traceEvents"]
        ops = [e for e in events if e["cat"] == "op"]
        assert ops
        begins = sorted(e["id"] for e in ops if e["ph"] == "b")
        ends = sorted(e["id"] for e in ops if e["ph"] == "e")
        assert begins == ends
        # write fan-outs carry per-rank ack children
        assert any("/ack" in e["id"] for e in ops)

    def test_finish_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        _run_scenario("geo-replication", obs=ObsConfig(out_dir=str(out)))
        assert (out / "timeline.jsonl").is_file()
        assert (out / "trace.json").is_file()
        trace = json.loads((out / "trace.json").read_text())
        assert trace["otherData"]["schema"] == "repro.trace/1"


class TestMarkers:
    def _observed_failure_run(self):
        from repro.experiments.platforms import ec2_harmony_platform

        def script(inj: FailureInjector) -> None:
            inj.crash_node(0, at=0.02, duration=0.03)

        return run(
            RunSpec(
                platform=ec2_harmony_platform(),
                policy=harmony_factory(0.4),
                ops=1200,
                seed=5,
                failure_script=script,
                obs=ObsConfig(sample_interval=0.02),
            )
        )

    def test_crash_and_recover_markers_recorded(self):
        outcome = self._observed_failure_run()
        records = outcome.obs.timeline_records()
        kinds = [r.get("kind") for r in records if r["type"] == "event"]
        assert "node-crash" in kinds and "node-recover" in kinds
        crash = next(r for r in records if r.get("kind") == "node-crash")
        assert crash["node"] == 0 and crash["t"] == pytest.approx(0.02)

    def test_report_renders_markers(self):
        outcome = self._observed_failure_run()
        text = render_text(outcome.obs.timeline_records(), source="test")
        assert "** node-crash" in text
        assert "** node-recover" in text
        assert "run timeline" in text and "repro.obs/2" in text

    def test_trace_carries_failure_instants(self):
        outcome = self._observed_failure_run()
        events = outcome.obs.tracer.to_chrome()["traceEvents"]
        names = {e["name"] for e in events if e["cat"] == "failure"}
        assert {"node-crash", "node-recover"} <= names


class TestTxnPhases:
    def test_2pc_spans_are_balanced(self):
        run = _run_scenario(
            "txn-geo-2pc", obs=ObsConfig(trace_sample_every=1)
        )
        events = run.obs.tracer.to_chrome()["traceEvents"]
        txn = [e for e in events if e["cat"] == "txn"]
        assert txn
        begins = sorted(
            (e["id"], e["name"]) for e in txn if e["ph"] == "b"
        )
        ends = sorted((e["id"], e["name"]) for e in txn if e["ph"] == "e")
        assert begins == ends
        assert any(e["name"].startswith("decide:") for e in txn)

    def test_txn_counters_in_samples(self):
        run = _run_scenario("txn-geo-2pc", obs=ObsConfig())
        last = [
            r for r in run.obs.timeline_records() if r["type"] == "sample"
        ][-1]
        assert last["txn_commits"] > 0


class TestElasticMarkers:
    def test_scale_and_migration_events_recorded(self):
        # enough ops that the run outlasts the churn script (starts t=0.03)
        run = scenarios.get("elastic-rebalance-storm").run(
            seed=5, ops=2000, obs=ObsConfig()
        )
        records = run.obs.timeline_records()
        kinds = {r.get("kind") for r in records if r["type"] == "event"}
        assert "scale-out" in kinds
        assert "migration-start" in kinds and "migration-complete" in kinds
        events = run.obs.tracer.to_chrome()["traceEvents"]
        reb = [e for e in events if e["cat"] == "rebalance"]
        assert sum(e["ph"] == "b" for e in reb) == sum(
            e["ph"] == "e" for e in reb
        )


class TestSweepObs:
    def test_obs_dir_stays_outside_run_identity(self, tmp_path):
        base = plan_sweep(["geo-replication"], root_seed=3)
        observed = plan_sweep(
            ["geo-replication"], root_seed=3, obs_dir=str(tmp_path)
        )
        assert [j.seed for j in base] == [j.seed for j in observed]

    def test_artifacts_byte_identical_across_jobs(self, tmp_path):
        def run(jobs: int, out: str):
            plan = plan_sweep(
                ["harmony-vs-static"],
                grid={"tolerance": [0.2, 0.4]},
                root_seed=3,
                ops=TINY_OPS,
                obs_dir=out,
            )
            return SweepRunner(jobs=jobs).run(plan)

        a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
        res_a = run(1, a_dir)
        res_b = run(2, b_dir)
        assert res_a.to_json() == res_b.to_json()
        rel = []
        for root, _dirs, files in os.walk(a_dir):
            rel += [
                os.path.relpath(os.path.join(root, f), a_dir) for f in files
            ]
        assert sorted(rel), "sweep wrote no artifacts"
        for path in sorted(rel):
            with open(os.path.join(a_dir, path), "rb") as fa, open(
                os.path.join(b_dir, path), "rb"
            ) as fb:
                assert fa.read() == fb.read(), path

    def test_artifacts_byte_identical_across_interpreter_invocations(
        self, tmp_path
    ):
        # In-process --jobs comparisons share one string hash seed, so they
        # cannot see hash-randomization leaks (set/dict iteration order
        # feeding float summation — the collision_profile tie-break bug).
        # Run the same tiny sweep in two fresh interpreters with different
        # PYTHONHASHSEED values and demand byte-equal artifacts.
        import subprocess
        import sys

        def run(seed: str, out: str):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in [env.get("PYTHONPATH"), "src"] if p
            )
            subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "sweep",
                    "--scenario", "node-failure-storm",
                    "--grid", "tolerance=0.4",
                    "--obs", "--ops", str(TINY_OPS),
                    "--jobs", "1", "--out", out,
                ],
                check=True,
                env=env,
                capture_output=True,
            )

        a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
        run("1", a_dir)
        run("2", b_dir)
        compared = 0
        for root, _dirs, files in os.walk(os.path.join(a_dir, "obs")):
            for name in sorted(files):
                path_a = os.path.join(root, name)
                path_b = os.path.join(
                    b_dir, os.path.relpath(path_a, a_dir)
                )
                with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
                    assert fa.read() == fb.read(), path_a
                compared += 1
        assert compared >= 2, "expected timeline + trace artifacts"

    def test_rows_name_their_artifact_dir(self, tmp_path):
        plan = plan_sweep(
            ["geo-replication"],
            root_seed=3,
            ops=TINY_OPS,
            obs_dir=str(tmp_path),
        )
        result = SweepRunner(jobs=1).run(plan)
        (row,) = result.rows
        assert (tmp_path / row["obs_dir"] / "timeline.jsonl").is_file()
        header = load_timeline(
            str(tmp_path / row["obs_dir"] / "timeline.jsonl")
        )[0]
        assert header["meta_scenario"] == "geo-replication"


class TestReportHelpers:
    def _records(self):
        return [
            {"type": "header", "schema": TIMELINE_SCHEMA, "sample_interval": 0.25},
            {"type": "sample", "t": 0.25, "stale_rate": 0.01, "level": "r=1",
             "ops_per_s": 100.0, "live_nodes": 4, "rebalance_active": False,
             "window_reads": 25, "window_stale": 0, "txn_blocked": 0},
            {"type": "event", "t": 0.3, "kind": "node-crash", "node": 1},
            {"type": "explain", "t": 0.5, "policy": "harmony(0.4)",
             "read_level": 2, "estimates": [0.5, 0.1], "tolerance": 0.4,
             "write_rate": 10.0, "read_rate": 90.0},
        ]

    def test_valid_timeline_passes(self):
        assert validate_timeline(self._records()) == []

    def test_validation_catches_problems(self):
        assert validate_timeline([]) == ["timeline is empty"]
        bad_schema = self._records()
        bad_schema[0]["schema"] = "bogus/9"
        assert any("schema" in p for p in validate_timeline(bad_schema))
        backwards = self._records()
        backwards[2]["t"] = 0.1
        assert any("backwards" in p for p in validate_timeline(backwards))
        missing = self._records()
        del missing[2]["kind"]
        assert any("kind" in p for p in validate_timeline(missing))
        for field in ("window_reads", "window_stale", "txn_blocked"):
            unread = self._records()
            del unread[1][field]
            assert validate_timeline(unread) == [
                f"record 2: sample missing {field!r}"
            ]

    def test_samples_csv_shape(self):
        csv = samples_csv(self._records())
        lines = csv.strip().split("\n")
        assert lines[0].startswith("t,")
        assert "rebalance_active" in lines[0]
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "0.25"

    def test_load_timeline_rejects_bad_json(self, tmp_path):
        path = tmp_path / "timeline.jsonl"
        path.write_text('{"type": "header"}\nnot json\n')
        with pytest.raises(ConfigError, match="timeline.jsonl:2"):
            load_timeline(str(path))

    def test_find_timelines(self, tmp_path):
        nested = tmp_path / "b" / "run1"
        nested.mkdir(parents=True)
        (nested / "timeline.jsonl").write_text("{}\n")
        assert find_timelines(str(tmp_path)) == [
            str(nested / "timeline.jsonl")
        ]
        assert find_timelines(str(nested / "timeline.jsonl")) == [
            str(nested / "timeline.jsonl")
        ]
        with pytest.raises(ConfigError):
            find_timelines(str(tmp_path / "missing"))


class TestReportCli:
    @pytest.fixture()
    def artifact_dir(self, tmp_path):
        out = tmp_path / "run"
        _run_scenario(
            "harmony-vs-static",
            obs=ObsConfig(sample_interval=0.02, out_dir=str(out)),
        )
        return tmp_path

    def test_report_text(self, artifact_dir, capsys):
        from repro.cli import main

        assert main(["report", str(artifact_dir)]) == 0
        out = capsys.readouterr().out
        assert "run timeline" in out and "samples" in out

    def test_report_csv(self, artifact_dir, capsys):
        from repro.cli import main

        assert main(["report", str(artifact_dir), "--csv"]) == 0
        head = capsys.readouterr().out.split("\n")[0]
        assert head.startswith("t,") and "stale_rate" in head

    def test_report_validate_ok(self, artifact_dir, capsys):
        from repro.cli import main

        assert main(["report", str(artifact_dir), "--validate"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_report_validate_fails_on_corrupt(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "timeline.jsonl").write_text(
            '{"type": "sample", "t": 1.0}\n'
        )
        with pytest.raises(SystemExit):
            main(["report", str(tmp_path), "--validate"])
        assert "INVALID" in capsys.readouterr().out

    def test_report_missing_path_is_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_obs_requires_out(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--scenario", "geo-replication", "--obs"]) == 2
        assert "--out" in capsys.readouterr().err


class TestObserverScaleCounts:
    def test_samples_carry_the_observer_counts_without_double_count(self):
        run = scenarios.get("elastic-rebalance-storm").run(
            seed=5, ops=2000, obs=ObsConfig()
        )
        samples = [
            r for r in run.obs.timeline_records() if r["type"] == "sample"
        ]
        final = samples[-1]
        elastic = run.report.elastic
        assert elastic["scale_outs"] > 0
        assert (run.obs.scale_outs, run.obs.scale_ins) == (
            elastic["scale_outs"],
            elastic["scale_ins"],
        )
        assert final["scale_outs"] == elastic["scale_outs"]
        assert final["scale_ins"] == elastic["scale_ins"]

    @pytest.mark.parametrize(
        "policy, has_scale",
        [(static_factory(1, 1), False), (harmony_factory(0.4), True)],
        ids=["static", "harmony"],
    )
    def test_scale_fields_only_when_a_monitor_listened_first(self, policy, has_scale):
        from repro.experiments.platforms import single_dc_platform

        out = run(
            RunSpec(
                platform=single_dc_platform(),
                policy=policy,
                ops=TINY_OPS,
                seed=5,
                obs=ObsConfig(sample_interval=0.002),
            )
        )
        samples = [r for r in out.obs.timeline_records() if r["type"] == "sample"]
        assert len(samples) > 1
        assert all(("scale_outs" in r) == has_scale for r in samples)
        assert all(("scale_ins" in r) == has_scale for r in samples)

    def test_a_monitor_attached_after_the_observer_adds_no_scale_fields(self, store):
        from repro.monitor.collector import ClusterMonitor

        obs = _bare_observer(store, 0.5)
        store.observe(ClusterMonitor())
        store.sim.run(until=1.1)
        assert all(
            "scale_outs" not in r
            for r in obs.timeline_records()
            if r["type"] == "sample"
        )

    def test_static_elastic_run_counts_scale_events_but_samples_omit_them(self):
        from repro.elastic import ElasticSpec, RebalanceConfig
        from repro.experiments.platforms import single_dc_platform

        def script(reb):
            reb.store.transport.post_at(0.02, reb.bootstrap_node, 0)

        out = run(
            RunSpec(
                platform=single_dc_platform(),
                policy=static_factory(1, 1),
                ops=1200,
                seed=5,
                elastic=ElasticSpec(
                    script=script,
                    rebalance=RebalanceConfig(pump_interval=0.002),
                ),
                obs=ObsConfig(sample_interval=0.02),
            )
        )
        assert out.report.elastic["scale_outs"] == out.obs.scale_outs == 1
        samples = [r for r in out.obs.timeline_records() if r["type"] == "sample"]
        assert not any("scale_outs" in r for r in samples)
