"""Tests for the streaming anomaly oracles (schema ``repro.obs/2``).

The load-bearing guarantees:

- each oracle is a deterministic state machine: driven synthetically it
  emits exactly the edge-triggered start/end (or point) records claimed;
- a real chaos run (WAN partition between the two EC2 AZs) produces a
  quorum-loss window aligned with the injected partition;
- oracles ride the observer-effect contract: enabling them never changes
  a run's results, and anomaly records are byte-identical across
  ``--jobs`` layouts and ``PYTHONHASHSEED`` values;
- the oracles always run: a bare observer's header counts anomalies and
  every sample carries ``txn_blocked``, and the validator accepts only
  the schema the observer writes.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import pytest

from repro.cluster.versions import Version
from repro.common.errors import ConfigError
from repro.experiments import scenarios
from repro.experiments.sweep import SweepRunner, plan_sweep
from repro.obs.events import ObsEvent
from repro.obs import oracles
from repro.obs.oracles import AnomalyOracles, OracleConfig
from repro.obs.recorder import TIMELINE_SCHEMA, ObsConfig
from repro.obs.report import render_text, validate_timeline

# Tiny-but-real chaos runs: pacing makes the horizon ops/offered_load
# (=4000/s), so the partition window must be squeezed to fit.
CHAOS_OPS = 800
CHAOS_OVERRIDES = {"partition_start": 0.05, "partition_duration": 0.08}


class _StubNode:
    def __init__(self, node_id: int, up: bool = True, retired: bool = False):
        self.node_id = node_id
        self.up = up
        self.retired = retired


class _StubTopology:
    def __init__(self, dc_by_node):
        self._dc_by_node = dict(dc_by_node)
        self.datacenters = sorted(set(self._dc_by_node.values()))

    def dc_of(self, node_id: int) -> int:
        return self._dc_by_node[node_id]


class _StubRebalancer:
    def __init__(self):
        self.active = False
        self.sig = (0, 0, 0, 0)

    def progress_signature(self):
        return self.sig

    def pending_keys(self) -> int:
        return 5


class _StubStore:
    """Just enough store surface for the oracle engine: nodes + topology."""

    def __init__(self, nodes=None, topology=None, rebalancer=None):
        self.nodes = nodes if nodes is not None else [_StubNode(0)]
        self.topology = topology or _StubTopology({n.node_id: 0 for n in self.nodes})
        self.rebalancer = rebalancer


def _engine(store=None, **config_kwargs):
    sink: list = []
    engine = AnomalyOracles(
        store or _StubStore(), OracleConfig(**config_kwargs), sink.append
    )
    return engine, sink


@pytest.fixture
def tune(monkeypatch):
    """Set ``repro.obs.oracles`` constants for one test."""

    def set_constants(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(oracles, name, value)

    return set_constants


def _read(key: str, version, t: float = 1.0, ok: bool = True):
    return SimpleNamespace(kind="read", key=key, version=version, ok=ok, t_end=t)


class TestOracleConfig:
    def test_defaults_are_valid(self):
        OracleConfig()

    @pytest.mark.parametrize("in_doubt_dwell", [0.0, -1.0])
    def test_bad_values_rejected(self, in_doubt_dwell):
        with pytest.raises(ConfigError, match="in_doubt_dwell"):
            OracleConfig(in_doubt_dwell=in_doubt_dwell)


class TestStaleBurstOracle:
    def test_burst_opens_and_closes_on_rate_edge(self, tune):
        tune(STALE_WINDOW_TICKS=2, STALE_MIN_READS=10)
        engine, sink = _engine()
        engine.on_tick(0.25, window_reads=20, window_stale=2)  # rate 0.1
        assert sink == []
        engine.on_tick(0.50, window_reads=20, window_stale=20)  # window rate 0.55
        assert [r["phase"] for r in sink] == ["start"]
        assert sink[0]["oracle"] == "stale-burst"
        assert sink[0]["t"] == 0.50
        engine.on_tick(0.75, window_reads=20, window_stale=0)  # rate back to 0.5
        assert [r["phase"] for r in sink] == ["start", "end"]
        assert sink[1]["duration"] == pytest.approx(0.25)

    def test_rate_at_the_threshold_is_no_burst(self):
        engine, sink = _engine()  # STALE_RATE_THRESHOLD = 0.5, 4-tick window
        engine.on_tick(0.25, window_reads=32, window_stale=16)  # rate exactly 0.5
        assert sink == []
        engine.on_tick(0.50, window_reads=32, window_stale=17)  # window 33/64
        assert [(e["phase"], e["threshold"]) for e in sink] == [("start", 0.5)]

    def test_min_reads_gates_noise(self):
        engine, sink = _engine()  # STALE_MIN_READS = 16
        engine.on_tick(0.25, window_reads=3, window_stale=3)  # rate 1.0, 3 reads
        assert sink == []

    def test_finish_closes_open_burst_as_unresolved(self, tune):
        tune(STALE_MIN_READS=1)
        engine, sink = _engine()
        engine.on_tick(0.25, window_reads=10, window_stale=10)
        engine.finish(0.4)
        assert sink[-1]["phase"] == "end"
        assert sink[-1]["unresolved"] is True


class TestInDoubtDwellOracle:
    def test_dwell_past_budget_flags_then_resolves(self):
        engine, sink = _engine(in_doubt_dwell=1.0)
        engine.on_txn_prepared(3, 17, 0.0)
        engine.on_tick(0.5, 0, 0)
        assert sink == []  # within budget
        engine.on_tick(1.5, 0, 0)
        (start,) = sink
        assert (start["oracle"], start["phase"]) == ("in-doubt-dwell", "start")
        assert (start["node"], start["txn"]) == (3, 17)
        assert start["waited"] == pytest.approx(1.5)
        engine.on_txn_doubt_resolved(3, 17, 1.8)
        assert sink[-1]["phase"] == "end"
        assert sink[-1]["t"] == 1.8

    def test_resolution_within_budget_is_silent(self):
        engine, sink = _engine(in_doubt_dwell=1.0)
        engine.on_txn_prepared(1, 5, 0.0)
        engine.on_txn_doubt_resolved(1, 5, 0.2)
        engine.on_tick(2.0, 0, 0)
        assert sink == []

    def test_duplicate_registration_keeps_earliest_prepare_time(self):
        # Re-registering a pair while the node stays up keeps the original
        # prepare time: the dwell clock measures the full live wait.
        engine, sink = _engine(in_doubt_dwell=1.0)
        engine.on_txn_prepared(2, 9, 0.1)
        engine.on_txn_prepared(2, 9, 0.9)  # duplicate, later timestamp
        engine.on_tick(1.2, 0, 0)
        (start,) = sink
        assert start["waited"] == pytest.approx(1.1)

    def test_crashed_node_is_dead_not_blocked(self):
        # A pair on a down node is dropped at the tick (dead, not blocked);
        # recovery re-registers at the recovery instant, restarting the
        # clock, so only live dwell counts against the budget.
        nodes = [_StubNode(0), _StubNode(1)]
        engine, sink = _engine(_StubStore(nodes=nodes), in_doubt_dwell=1.0)
        def dwell():
            return [r for r in sink if r["oracle"] == "in-doubt-dwell"]
        engine.on_txn_prepared(1, 7, 0.0)
        nodes[1].up = False
        engine.on_tick(5.0, 0, 0)
        assert dwell() == []  # down the whole dwell: never flagged
        nodes[1].up = True
        engine.on_txn_prepared(1, 7, 5.0)  # recovery replay at ``now``
        engine.on_tick(5.5, 0, 0)
        assert dwell() == []  # only 0.5s of live dwell so far
        engine.on_tick(6.2, 0, 0)
        (start,) = dwell()
        assert start["phase"] == "start"
        assert start["waited"] == pytest.approx(1.2)

    def test_open_dwell_closes_when_the_node_crashes(self):
        nodes = [_StubNode(0), _StubNode(1)]
        engine, sink = _engine(_StubStore(nodes=nodes), in_doubt_dwell=0.5)
        def dwell():
            return [r for r in sink if r["oracle"] == "in-doubt-dwell"]
        engine.on_txn_prepared(1, 3, 0.0)
        engine.on_tick(1.0, 0, 0)
        assert dwell()[-1]["phase"] == "start"
        nodes[1].up = False
        engine.on_tick(1.5, 0, 0)
        assert dwell()[-1]["phase"] == "end"
        assert dwell()[-1]["crashed"] is True

    def test_restart_between_ticks_overwrites_start_time(self):
        # Crash + recovery entirely inside one tick interval: the tick
        # sweep never saw the node down, so without the explicit restart
        # flag the pre-crash start time would win (on_prepared keeps the
        # earliest) and downtime would count as live dwell. The recovery
        # path passes restart=True, which overwrites unconditionally.
        engine, sink = _engine(in_doubt_dwell=1.0)
        engine.on_txn_prepared(1, 7, 0.0)
        engine.on_txn_prepared(1, 7, 5.0, restart=True)  # recovery replay
        engine.on_tick(5.5, 0, 0)
        assert sink == []  # 0.5s of live dwell, not 5.5s
        engine.on_tick(6.2, 0, 0)
        (start,) = sink
        assert start["waited"] == pytest.approx(1.2)

    def test_restart_closes_an_anomaly_left_open_across_the_crash(self):
        engine, sink = _engine(in_doubt_dwell=0.5)
        engine.on_txn_prepared(1, 3, 0.0)
        engine.on_tick(1.0, 0, 0)
        assert sink[-1]["phase"] == "start"
        # Crash + recovery between ticks: the restart closes the stale
        # open anomaly (the node was dead, not blocked) and restarts it.
        engine.on_txn_prepared(1, 3, 1.4, restart=True)
        assert sink[-1]["phase"] == "end"
        assert sink[-1]["crashed"] is True
        assert sink[-1]["t"] == 1.4

    def test_finish_marks_still_blocked_txns(self):
        engine, sink = _engine(in_doubt_dwell=0.1)
        engine.on_txn_prepared(1, 2, 0.0)
        engine.on_tick(1.0, 0, 0)
        engine.finish(1.5)
        assert sink[-1] == {
            "type": "anomaly", "t": 1.5, "oracle": "in-doubt-dwell",
            "phase": "end", "node": 1, "txn": 2, "unresolved": True,
        }


class TestRebalanceStallOracle:
    def test_frozen_signature_past_budget_is_a_stall(self):
        reb = _StubRebalancer()
        store = _StubStore(rebalancer=reb)
        engine, sink = _engine(store)  # REBALANCE_STALL = 0.5
        engine.on_elastic_event("migration-start", 0.0)
        reb.active = True
        reb.sig = (10, 1000, 0, 0)
        engine.on_tick(0.25, 0, 0)  # first sighting counts as progress
        engine.on_tick(0.50, 0, 0)
        assert sink == []  # only 0.25s frozen
        engine.on_tick(0.80, 0, 0)
        (start,) = sink
        assert (start["oracle"], start["phase"]) == ("rebalance-stall", "start")
        assert start["pending_keys"] == 5
        reb.sig = (20, 2000, 0, 0)  # pump lands
        engine.on_tick(1.0, 0, 0)
        assert sink[-1]["phase"] == "end"

    def test_steady_progress_never_fires(self):
        reb = _StubRebalancer()
        store = _StubStore(rebalancer=reb)
        engine, sink = _engine(store)  # REBALANCE_STALL = 0.5
        reb.active = True
        for i in range(1, 8):
            reb.sig = (i, i * 100, 0, 0)
            engine.on_tick(i * 0.25, 0, 0)
        assert sink == []

    def test_inactive_rebalancer_is_ignored(self, tune):
        tune(REBALANCE_STALL=0.1)
        store = _StubStore(rebalancer=_StubRebalancer())
        engine, sink = _engine(store)
        for i in range(1, 6):
            engine.on_tick(i * 1.0, 0, 0)
        assert sink == []


class TestQuorumLossOracle:
    def _two_dc_store(self, per_dc: int = 3):
        nodes = [_StubNode(i) for i in range(2 * per_dc)]
        topo = _StubTopology({i: 0 if i < per_dc else 1 for i in range(2 * per_dc)})
        return _StubStore(nodes=nodes, topology=topo)

    def test_symmetric_partition_loses_quorum_until_heal(self):
        engine, sink = _engine(self._two_dc_store())
        engine.on_fault(
            ObsEvent(0.3, "partition", {"dc_a": 0, "dc_b": 1})
        )
        (start,) = sink
        assert (start["oracle"], start["phase"]) == ("quorum-loss", "start")
        # 3+3 nodes split 3|3: best component 3 < needed 4
        assert (start["live"], start["needed"], start["total"]) == (3, 4, 6)
        engine.on_fault(ObsEvent(0.7, "heal", {"dc_a": 0, "dc_b": 1}))
        assert sink[-1]["phase"] == "end"
        assert sink[-1]["duration"] == pytest.approx(0.4)

    def test_majority_crash_without_partition(self):
        store = self._two_dc_store()
        engine, sink = _engine(store)
        for node in store.nodes[:4]:
            node.up = False
        engine.on_fault(ObsEvent(1.0, "node-crash", {"node": 3}))
        (start,) = sink
        assert (start["live"], start["needed"]) == (2, 4)
        store.nodes[0].up = store.nodes[1].up = True
        engine.on_fault(ObsEvent(2.0, "node-recover", {"node": 0}))
        assert sink[-1]["phase"] == "end"

    def test_retired_nodes_shrink_the_quorum(self):
        # 4 nodes, 2 retired: majority of the remaining 2 is 2 -- both up
        # in one component means no loss even though half the fleet is gone.
        nodes = [_StubNode(i, retired=i >= 2) for i in range(4)]
        store = _StubStore(nodes=nodes, topology=_StubTopology({i: 0 for i in range(4)}))
        engine, sink = _engine(store)
        engine.on_tick(1.0, 0, 0)
        assert sink == []

    def test_minority_partition_keeps_quorum(self):
        # DC0 has 4 nodes, DC1 has 1: cutting them leaves a 4-node majority.
        nodes = [_StubNode(i) for i in range(5)]
        topo = _StubTopology({0: 0, 1: 0, 2: 0, 3: 0, 4: 1})
        engine, sink = _engine(_StubStore(nodes=nodes, topology=topo))
        engine.on_fault(ObsEvent(0.5, "partition", {"dc_a": 0, "dc_b": 1}))
        assert sink == []


class TestMonotonicReadOracle:
    def test_older_version_is_a_point_anomaly(self, tune):
        tune(MONOTONIC_SAMPLE_EVERY=1)
        engine, sink = _engine()
        newer = Version(2.0, 7, 100)
        older = Version(1.0, 3, 100)
        engine.on_read(_read("k1", newer, t=1.0))
        engine.on_read(_read("k1", older, t=2.0))
        (point,) = sink
        assert (point["oracle"], point["phase"]) == ("monotonic-read", "point")
        assert (point["key"], point["expected"], point["got"]) == ("k1", 7, 3)

    def test_advancing_versions_are_silent(self, tune):
        tune(MONOTONIC_SAMPLE_EVERY=1)
        engine, sink = _engine()
        for write_id in range(5):
            engine.on_read(_read("k", Version(float(write_id), write_id, 10)))
        assert sink == []

    def test_failed_and_valueless_reads_are_ignored(self, tune):
        tune(MONOTONIC_SAMPLE_EVERY=1)
        engine, sink = _engine()
        engine.on_read(_read("k", Version(2.0, 2, 10)))
        engine.on_read(_read("k", None))
        engine.on_read(_read("k", Version(1.0, 1, 10), ok=False))
        assert sink == []

    def test_sampling_is_crc32_not_hash(self):
        # the sampled-key predicate must not depend on PYTHONHASHSEED
        import zlib

        engine, _ = _engine()  # MONOTONIC_SAMPLE_EVERY = 8
        oracle = engine.monotonic
        for key in ("user1", "user2", "k-17", "xyz"):
            expected = zlib.crc32(key.encode("utf-8")) % 8 == 0
            assert oracle._sampled(key) is expected


class TestEngineCap:
    def test_per_oracle_cap_counts_suppressed(self, tune):
        tune(MONOTONIC_SAMPLE_EVERY=1, MAX_ANOMALIES=2)
        engine, sink = _engine()
        newer = Version(9.0, 9, 10)
        engine.on_read(_read("k", newer))
        for i in range(5):
            engine.on_read(_read("k", Version(1.0, 1, 10), t=float(i)))
        assert len(sink) == 2
        assert engine.counts == {"monotonic-read": 2}
        assert engine.suppressed == 3
        assert sum(engine.counts.values()) == 2


def _chaos_run(**kwargs):
    defaults = dict(
        seed=5,
        ops=CHAOS_OPS,
        overrides=CHAOS_OVERRIDES,
        obs=ObsConfig(sample_interval=0.02),
    )
    defaults.update(kwargs)
    return scenarios.get("geo-partition-chaos").run(**defaults)


class TestChaosScenarioIntegration:
    def test_partition_produces_quorum_loss_window(self):
        run = _chaos_run()
        records = run.obs.timeline_records()
        quorum = [
            r for r in records
            if r.get("type") == "anomaly" and r["oracle"] == "quorum-loss"
        ]
        phases = [r["phase"] for r in quorum]
        assert phases == ["start", "end"]
        assert quorum[0]["t"] == pytest.approx(
            CHAOS_OVERRIDES["partition_start"]
        )
        assert quorum[1]["duration"] == pytest.approx(
            CHAOS_OVERRIDES["partition_duration"]
        )
        assert validate_timeline(records) == []

    def test_header_counts_and_report_surface_anomalies(self):
        run = _chaos_run()
        records = run.obs.timeline_records()
        header = records[0]
        assert header["schema"] == TIMELINE_SCHEMA
        anomalies = [r for r in records if r.get("type") == "anomaly"]
        assert sum(header["anomalies"].values()) == len(anomalies)
        assert header["anomalies"]["quorum-loss"] == 2
        text = render_text(records)
        assert "!! anomaly quorum-loss start" in text
        assert "anomalies" in text

    def test_oracles_never_change_results(self):
        observed = _chaos_run()
        plain = _chaos_run(obs=None)
        assert plain.obs is None
        assert observed.report.ops_completed == plain.report.ops_completed
        assert observed.report.stale_rate == plain.report.stale_rate
        assert observed.report.duration == plain.report.duration


class TestChaosDeterminism:
    def test_anomaly_artifacts_byte_identical_across_jobs(self, tmp_path):
        def run(jobs: int, out: str):
            plan = plan_sweep(
                ["geo-partition-chaos"],
                grid={
                    "partition_start": [CHAOS_OVERRIDES["partition_start"]],
                    "partition_duration": [CHAOS_OVERRIDES["partition_duration"]],
                    "tolerance": [0.2, 0.4],
                },
                root_seed=3,
                ops=CHAOS_OPS,
                obs_dir=out,
            )
            return SweepRunner(jobs=jobs).run(plan)

        a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
        res_a = run(1, a_dir)
        res_b = run(2, b_dir)
        assert res_a.to_json() == res_b.to_json()
        compared = saw_anomaly = 0
        for root, _dirs, files in os.walk(a_dir):
            for name in sorted(files):
                path_a = os.path.join(root, name)
                path_b = os.path.join(b_dir, os.path.relpath(path_a, a_dir))
                with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
                    data = fa.read()
                    assert data == fb.read(), path_a
                if name == "timeline.jsonl" and b'"type": "anomaly"' in data:
                    saw_anomaly += 1
                compared += 1
        assert compared >= 4, "expected timeline + trace per run"
        assert saw_anomaly >= 1, "chaos timelines carried no anomaly records"

    def test_anomalies_byte_identical_across_hash_seeds(self, tmp_path):
        # Anomaly emission orders dict/set state explicitly (sorted keys,
        # crc32 sampling); prove it by running the chaos sweep in two fresh
        # interpreters with different PYTHONHASHSEED values.
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
                    "--scenario", "geo-partition-chaos",
                    "--grid", f"partition_start={CHAOS_OVERRIDES['partition_start']}",
                    "--grid", f"partition_duration={CHAOS_OVERRIDES['partition_duration']}",
                    "--obs", "--ops", str(CHAOS_OPS),
                    "--jobs", "1", "--out", out,
                ],
                check=True,
                env=env,
                capture_output=True,
            )

        a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
        run("1", a_dir)
        run("2", b_dir)
        compared = saw_anomaly = 0
        for root, _dirs, files in os.walk(os.path.join(a_dir, "obs")):
            for name in sorted(files):
                path_a = os.path.join(root, name)
                path_b = os.path.join(b_dir, os.path.relpath(path_a, a_dir))
                with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
                    data = fa.read()
                    assert data == fb.read(), path_a
                if name == "timeline.jsonl":
                    assert b'"type": "anomaly"' in data
                    saw_anomaly += 1
                compared += 1
        assert compared >= 2 and saw_anomaly >= 1


class TestSchema:
    def test_v1_header_is_rejected(self):
        records = [
            {"type": "header", "schema": "repro.obs/1", "sample_interval": 0.25},
            {"type": "event", "t": 0.3, "kind": "node-crash", "node": 1},
        ]
        (problem,) = validate_timeline(records)
        assert "repro.obs/1" in problem and TIMELINE_SCHEMA in problem

    def test_report_validate_exits_1_on_a_v1_header(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path = tmp_path / "timeline.jsonl"
        path.write_text(
            json.dumps({"type": "header", "schema": "repro.obs/1"}) + "\n"
        )
        with pytest.raises(SystemExit) as exc:
            main(["report", str(path), "--validate"])
        assert exc.value.code == 1
        assert "INVALID" in capsys.readouterr().out

    def test_v2_anomaly_shape_is_checked(self):
        base = [
            {"type": "header", "schema": TIMELINE_SCHEMA, "sample_interval": 0.25},
        ]
        missing_oracle = base + [{"type": "anomaly", "t": 0.1, "phase": "start"}]
        assert any("oracle" in p for p in validate_timeline(missing_oracle))
        bad_phase = base + [
            {"type": "anomaly", "t": 0.1, "oracle": "x", "phase": "mid"}
        ]
        assert any("phase" in p for p in validate_timeline(bad_phase))
