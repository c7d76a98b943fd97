"""Golden reports: pin small runs' ``RunReport`` (and bill) across commits.

The sweep determinism checks compare ``--jobs 1`` with ``--jobs 2`` inside
one tree; nothing there notices a refactor that changes every report the
same way. These constants do: they are the crc32 of the canonical-JSON
report, computed on the commit *before* the event-path refactor (PR 13)
and to be changed only by a PR whose stated goal is to change simulated
behaviour.

The second group was computed on the commit before the run-pipeline
collapse (PR 14) and hashes the bill (and, with an observer, the
timeline) next to the report: it pins the warmup boundary, the
elastic attach order, the observer wiring and the "bill is read before
the elastic drain" rule, none of which the first three runs reach.
Its last two runs, the RF=5 write-heavy Bismar shape with and without a
partition and a crash, were pinned on the commit before acks that land
after the client ack stopped being delivered as events.
"""

from __future__ import annotations

import dataclasses
import json
import zlib

import pytest

import repro
from repro.obs import ObsConfig
from repro.workload.workloads import read_mostly_latest

_STORM_TXN_CONFIG = dict(
    prepare_timeout=0.5, client_timeout=2.0, retry_interval=0.25,
    status_interval=0.1, status_backoff=2.0, status_interval_max=0.5,
    termination_after=2, termination_timeout=0.25,
)


def _crash_storms(injector) -> None:
    for k in range(40):
        injector.crash_storm(
            [0, 2, 5, 7], start=1.0 + 5.0 * k, interval=0.5, downtime=1.5
        )


def _lan_static_quorum() -> repro.RunSpec:
    quorum = repro.ConsistencyLevel.QUORUM
    return repro.RunSpec(
        platform=repro.single_dc_platform(),
        policy=repro.static_factory(quorum, quorum),
        workload=repro.WORKLOADS["A"].scaled(1000),
        ops=1000, seed=5, warmup_fraction=0.0,
    )


def _geo_harmony() -> repro.RunSpec:
    return repro.RunSpec(
        platform=repro.grid5000_harmony_platform(),
        policy=repro.harmony_factory(0.02),
        workload=repro.WORKLOADS["B"].scaled(5000),
        ops=1000, seed=5, warmup_fraction=0.0,
    )


def _txn_storm_3pc() -> repro.RunSpec:
    return repro.RunSpec(
        platform=repro.storm_txn_platform(),
        policy=repro.named_policy_factory("quorum"),
        txn_workload=repro.TxnWorkloadSpec(
            name="read-modify-write", n_keys=1, read_slots=(0,),
            write_slots=(0,), record_count=400,
        ),
        ops=600, clients=12, seed=5, warmup_fraction=0.0,
        commit_protocol="3pc", failure_script=_crash_storms,
        txn_config=repro.TxnConfig(**_STORM_TXN_CONFIG),
    )


def _elastic_diurnal_cohort() -> repro.RunSpec:
    # The ``elastic-diurnal-cohort`` shape at half size: the autoscaler is
    # still streaming its last scale-out when the workload ends, so the
    # post-run drain advances the clock past the billed window.
    return repro.RunSpec(
        platform=repro.small_dc_platform(),
        policy=repro.harmony_factory(0.4),
        workload=read_mostly_latest(record_count=800),
        elastic=repro.ElasticSpec(
            autoscaler=repro.AutoscalerConfig(
                interval=0.02, consecutive=2, cooldown=0.08,
                scale_out_util=0.55, scale_in_util=0.2,
                queue_depth_high=3.0, max_nodes=24,
            ),
            rebalance=repro.RebalanceConfig(
                pump_interval=0.005, attempt_timeout=0.1
            ),
            pacing_schedule=((0.3, 6000.0), (0.7, 1200.0)),
        ),
        ops=3000, clients=1_000_000, client_mode="cohort", seed=5,
        warmup_fraction=0.2, target_throughput=800.0,
    )


def _txn_warmup_obs() -> repro.RunSpec:
    return repro.RunSpec(
        platform=repro.storm_txn_platform(),
        policy=repro.named_policy_factory("quorum"),
        txn_workload=repro.bank_transfer_mix(record_count=400),
        ops=300, clients=8, seed=5, warmup_fraction=0.2,
        obs=ObsConfig(sample_interval=0.05, trace_sample_every=4),
    )


def _partition_then_crash(injector) -> None:
    injector.partition(0, 1, at=0.005, duration=0.01)
    injector.crash_node(2, at=0.02, duration=0.01)


def _geo_failure_script() -> repro.RunSpec:
    return repro.RunSpec(
        platform=repro.grid5000_harmony_platform(),
        policy=repro.harmony_factory(0.2),
        workload=repro.WORKLOADS["A"].scaled(2000),
        ops=1500, seed=5, warmup_fraction=0.2,
        failure_script=_partition_then_crash,
    )


def _geo_bismar_write(failure_script=None) -> repro.RunSpec:
    # The ``geo-bismar-write`` benchmark shape at 2 000 ops: RF=5 write
    # fan-out where most acks land after the client already has its answer.
    platform = repro.grid5000_bismar_platform()
    return repro.RunSpec(
        platform=platform,
        policy=repro.bismar_factory(platform.prices),
        workload=repro.WorkloadSpec(
            name="write-heavy-20-80", read_proportion=0.2, update_proportion=0.8,
            record_count=platform.default_record_count,
        ),
        ops=2000, seed=5, warmup_fraction=0.0, failure_script=failure_script,
    )


def _cut_then_crash_dc1(injector) -> None:
    # Acks crossing the cut after the client ack are dropped; with twelve of
    # DC 1's 25 nodes down, some DC-1 writes reach no replica and time out.
    injector.partition(0, 1, at=0.01, duration=0.02)
    for node in range(25, 37):
        injector.crash_node(node, at=0.015, duration=0.01)


def _geo_bismar_write_failures() -> repro.RunSpec:
    return _geo_bismar_write(_cut_then_crash_dc1)


def _crc32(payload) -> int:
    text = json.dumps(payload, sort_keys=True, default=str)
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


def report_crc32(report) -> int:
    return _crc32(dataclasses.asdict(report))


@pytest.mark.parametrize(
    "make_spec, golden",
    [
        (_lan_static_quorum, 607172197),
        (_geo_harmony, 4150927605),
        # exercises coordinator timeouts: 5 reads time out behind crashed replicas
        (_txn_storm_3pc, 3439886768),
    ],
    ids=["lan-static-quorum", "geo-harmony", "txn-storm-3pc"],
)
def test_report_is_byte_identical_to_the_pinned_commit(make_spec, golden):
    report = repro.run(make_spec()).report
    assert report_crc32(report) == golden


def outcome_crc32(out) -> int:
    """Report + bill (+ timeline when observed) as one canonical-JSON hash."""
    return _crc32(
        {
            "report": dataclasses.asdict(out.report),
            "bill_total": out.bill.total,
            "bill_cost_per_kop": out.bill.cost_per_kop,
            "timeline": out.obs.timeline_records() if out.obs is not None else None,
        }
    )


@pytest.mark.parametrize(
    "make_spec, golden",
    [
        (_elastic_diurnal_cohort, 4061023125),
        (_txn_warmup_obs, 2562719220),
        (_geo_failure_script, 507210977),
        (_geo_bismar_write, 3355711457),
        (_geo_bismar_write_failures, 3092766192),
    ],
    ids=[
        "elastic-diurnal-cohort", "txn-warmup-obs", "geo-failure-script",
        "geo-bismar-write", "geo-bismar-write-failures",
    ],
)
def test_report_and_bill_are_byte_identical_to_the_pinned_commit(make_spec, golden):
    assert outcome_crc32(repro.run(make_spec())) == golden


def test_bismar_failure_run_drops_acks_and_times_out_writes():
    out = repro.run(_geo_bismar_write_failures())
    assert out.report.failures.get("write_timeout", 0) > 0
    assert out.store.network.dropped > 0


def test_elastic_bill_covers_the_report_window_not_the_drain():
    # When pinned, this run billed at t=0.995 and drained until t=1.045.
    out = repro.run(_elastic_diurnal_cohort())
    assert out.report.elastic["scale_outs"] > 0
    assert out.report.elastic["pending_final"] == 0
    assert out.bill.duration == out.report.duration


def test_storm_run_reaches_the_timeout_path():
    report = repro.run(_txn_storm_3pc()).report
    assert report.failures.get("read_timeout", 0) > 0


# -- the scenario registry -----------------------------------------------------
#
# The pins above build their RunSpecs by hand, so nothing there notices a
# change to how the registry turns a scenario into a run. These crc32s were
# taken on the commit before ScenarioSpec became ``params -> RunSpec``: the
# whole registry swept at 300 ops (with and without the observer, whose
# timelines are hashed too) and both ``repro scenarios`` listings.

_REGISTRY_OPS = 300


def _registry_sweep(obs_dir=None):
    from repro.experiments.sweep import SweepRunner, plan_sweep

    plan = plan_sweep(root_seed=11, ops=_REGISTRY_OPS, obs_dir=obs_dir)
    return SweepRunner(jobs=1).run(plan)


def _text_crc32(text: str) -> int:
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


def test_registry_sweep_is_byte_identical_to_the_pinned_commit():
    result = _registry_sweep()
    assert _text_crc32(result.to_json()) == 394975980
    assert _text_crc32(result.to_csv()) == 4020437793


def test_observed_registry_sweep_is_byte_identical_to_the_pinned_commit(tmp_path):
    result = _registry_sweep(obs_dir=str(tmp_path))
    assert _text_crc32(result.to_json()) == 214415872
    timelines = sorted(tmp_path.glob("*/timeline.jsonl"))
    assert len(timelines) == len(result.rows)
    joined = "".join(p.read_text(encoding="utf-8") for p in timelines)
    assert _text_crc32(joined) == 2464945229


@pytest.mark.parametrize(
    "argv, golden",
    [(["scenarios", "--json"], 2566342102), (["scenarios"], 3237914151)],
    ids=["json", "text"],
)
def test_scenario_listing_is_byte_identical_to_the_pinned_commit(argv, golden, capsys):
    from repro.cli import main

    assert main(argv) == 0
    assert _text_crc32(capsys.readouterr().out) == golden
