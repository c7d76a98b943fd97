"""Golden reports: pin three small runs' ``RunReport`` across commits.

The sweep determinism checks compare ``--jobs 1`` with ``--jobs 2`` inside
one tree; nothing there notices a refactor that changes every report the
same way. These constants do: they are the crc32 of the canonical-JSON
report, computed on the commit *before* the event-path refactor (PR 13)
and to be changed only by a PR whose stated goal is to change simulated
behaviour.
"""

from __future__ import annotations

import dataclasses
import json
import zlib

import pytest

import repro

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


def report_crc32(report) -> int:
    text = json.dumps(dataclasses.asdict(report), sort_keys=True, default=str)
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


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


def test_storm_run_reaches_the_timeout_path():
    report = repro.run(_txn_storm_3pc()).report
    assert report.failures.get("read_timeout", 0) > 0
