"""The commit path's storage: a columnar WAL and a run that allocates little.

- The columnar :class:`~repro.txn.wal.WriteAheadLog` must answer every read
  API exactly as a plain list of :class:`~repro.txn.wal.WalRecord` would,
  live and after a :class:`~repro.runtime.wal.FileWriteAheadLog` replay,
  with a payload released at the record that resolves it.
- After every append the log holds exactly the payloads recovery can read
  plus those no record resolves; so does a crash-storm run at its end.
- A 3PC crash-storm run must leave no ``WalRecord`` and no failure-script
  ``Event`` alive, keep the script out of the hot event heap, and never
  mutate a prepare payload it shares between the TM, the participant and
  the log.
"""

from __future__ import annotations

import gc
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.failures import FailureInjector
from repro.cluster.versions import Version
from repro.experiments.platforms import storm_txn_platform
from repro.experiments.runner import named_policy_factory
from repro.facade import RunSpec, run
from repro.runtime.wal import FileWriteAheadLog
from repro.simcore.events import Event
from repro.txn.api import TxnConfig
from repro.txn.participant import TxnParticipant
from repro.txn.wal import (
    REC_ABORT,
    REC_COMMIT,
    REC_PRECOMMIT,
    REC_PREPARE,
    REC_TM_ABORT,
    REC_TM_BEGIN,
    REC_TM_COMMIT,
    REC_TM_END,
    REC_TM_PRECOMMIT,
    WalRecord,
    WriteAheadLog,
)
from repro.workload.workloads import TxnWorkloadSpec

_KINDS = (
    REC_PREPARE, REC_PRECOMMIT, REC_COMMIT, REC_ABORT, REC_TM_BEGIN,
    REC_TM_PRECOMMIT, REC_TM_COMMIT, REC_TM_ABORT, REC_TM_END,
)
_TXNS = (1, 2, 3, 4, 5)  # 5 is never logged


def _payload(kind: str, txn_id: int, variant: bool) -> dict:
    """What the protocols log with ``kind`` (``variant``: a pledge, or no co list)."""
    if kind == REC_PREPARE:
        data = {"tm_node": txn_id % 3, "writes": {f"k{txn_id}": Version(0.5, txn_id, 64)}}
        if not variant:
            data["co"] = [0, txn_id]
        return data
    if kind == REC_TM_BEGIN:
        return {"participants": [0, txn_id]}
    if kind == REC_ABORT and variant:
        return {"pledge": True}
    return {}


#: resolving kind -> (the kind it resolves, every kind that resolves it)
_RESOLVES = {
    REC_COMMIT: (REC_PREPARE, (REC_COMMIT, REC_ABORT)),
    REC_ABORT: (REC_PREPARE, (REC_COMMIT, REC_ABORT)),
    REC_TM_END: (REC_TM_BEGIN, (REC_TM_END,)),
}


class _RecordLog:
    """The reference: a list of ``WalRecord`` and a scan for every answer.

    The first decision of a transaction releases its first ``prepare``'s
    payload, and the first ``tm-end`` its first ``tm-begin``'s, when that
    record precedes it.
    """

    def __init__(self):
        self.records = []

    def append(self, kind, txn_id, time, **data):
        rec = WalRecord(len(self.records), txn_id, kind, float(time), data)
        self.records.append(rec)
        if kind in _RESOLVES:
            opener, closers = _RESOLVES[kind]
            opened = self.first(txn_id, opener)
            if opened is not None and rec is self.first(txn_id, *closers):
                opened.data = {}

    def first(self, txn_id, *kinds):
        hits = (r for r in self.records if r.txn_id == txn_id and r.kind in kinds)
        return next(hits, None)

    def verdict(self, txn_id, commit, abort):
        rec = self.first(txn_id, commit, abort)
        return None if rec is None else ("commit" if rec.kind == commit else "abort")

    def in_doubt(self):
        return [
            r.txn_id for r in self.records
            if r is self.first(r.txn_id, REC_PREPARE)
            and self.first(r.txn_id, REC_COMMIT, REC_ABORT) is None
        ]

    def tm_unfinished(self):
        return [
            r for r in self.records
            if r is self.first(r.txn_id, REC_TM_BEGIN)
            and self.first(r.txn_id, REC_TM_END) is None
        ]


def _fields(records):
    return [(r.lsn, r.txn_id, r.kind, r.time, r.data) for r in records]


def _assert_same_log(log: WriteAheadLog, ref: _RecordLog) -> None:
    """Every read API of ``log`` against the reference and against the scans."""
    assert len(log) == len(ref.records)
    assert _fields(log.records) == _fields(ref.records)
    assert all(type(r) is WalRecord for r in log.records)
    for txn_id in _TXNS:
        assert _fields(log.records_for(txn_id)) == _fields(
            r for r in ref.records if r.txn_id == txn_id
        )
        assert log.kinds_for(txn_id) == tuple(
            r.kind for r in ref.records if r.txn_id == txn_id
        )
        prepare = ref.first(txn_id, REC_PREPARE)
        got = log.prepare_record(txn_id)
        assert (got is None) is (prepare is None)
        if got is not None:
            assert _fields([got]) == _fields([prepare])
        assert log.decision_for(txn_id) == ref.verdict(txn_id, REC_COMMIT, REC_ABORT)
        assert log.tm_decision(txn_id) == ref.verdict(txn_id, REC_TM_COMMIT, REC_TM_ABORT)
        assert log.precommitted(txn_id) is (ref.first(txn_id, REC_PRECOMMIT) is not None)
        assert log.tm_precommitted(txn_id) is (
            ref.first(txn_id, REC_TM_PRECOMMIT) is not None
        )
    assert log.in_doubt() == ref.in_doubt() == log.in_doubt_scan()
    assert _fields(log.tm_unfinished()) == _fields(ref.tm_unfinished())
    ended = {r.txn_id for r in ref.records if r.kind == REC_TM_END}
    assert _fields(log.tm_unfinished_scan()) == _fields(
        r for r in ref.records if r.kind == REC_TM_BEGIN and r.txn_id not in ended
    )


_APPENDS = st.lists(
    st.tuples(
        st.sampled_from(_KINDS),
        st.sampled_from(_TXNS[:-1]),
        st.booleans(),
        st.floats(0.0, 1e3, allow_nan=False),
    ),
    max_size=40,
)


class TestColumnarLogIsTheRecordLog:
    @settings(max_examples=150, deadline=None)
    @given(_APPENDS)
    # a pledge, then the late PREPARE it forbids; conflicting decisions
    @example([(REC_ABORT, 1, True, 0.1), (REC_PREPARE, 1, False, 0.2)])
    @example([
        (REC_PREPARE, 1, False, 0.1), (REC_COMMIT, 1, False, 0.2),
        (REC_ABORT, 1, True, 0.3), (REC_PREPARE, 1, True, 0.4),
        (REC_TM_ABORT, 2, False, 0.5), (REC_TM_COMMIT, 2, False, 0.6),
    ])
    # a round re-begun after its end, and one begun twice
    @example([
        (REC_TM_BEGIN, 1, False, 0.1), (REC_TM_END, 1, False, 0.2),
        (REC_TM_BEGIN, 1, False, 0.3), (REC_TM_BEGIN, 2, False, 0.4),
        (REC_TM_BEGIN, 2, False, 0.5), (REC_TM_PRECOMMIT, 2, False, 0.6),
    ])
    def test_every_read_api_matches_live_and_after_replay(self, appends):
        ref = _RecordLog()
        wal = WriteAheadLog(0)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "node0.wal")
            disk = FileWriteAheadLog(0, path)
            for lsn, (kind, txn_id, variant, t) in enumerate(appends):
                data = _payload(kind, txn_id, variant)
                ref.append(kind, txn_id, t, **data)
                assert wal.append(kind, txn_id, t, **data) == lsn
                assert disk.append(kind, txn_id, t, **data) == lsn
            disk.close()
            replayed = FileWriteAheadLog.replay(0, path)
            replayed.close()
        for log in (wal, disk, replayed):
            _assert_same_log(log, ref)

    def test_only_records_with_a_payload_keep_one(self):
        wal = WriteAheadLog(0)
        wal.append(REC_TM_BEGIN, 1, 0.1, participants=[0, 1])
        wal.append(REC_TM_COMMIT, 1, 0.2)
        wal.append(REC_ABORT, 2, 0.3, pledge=True)
        assert sorted(wal._data) == [0, 2]
        wal.append(REC_TM_END, 1, 0.4)  # txn 1's round is over: recovery skips it
        assert sorted(wal._data) == [2]
        assert wal.records[0].data == {} and wal.records[1].data == {}
        assert wal.records[2].data == {"pledge": True}


def _unresolvable(kinds, txn_ids, payloaded):
    """The payload records no later record can release, by a scan.

    Only a transaction's first ``prepare`` before any decision, or its first
    ``tm-begin`` before any ``tm-end``, opens something a record resolves.
    """
    firsts, closed, out = set(), set(), set()
    for lsn, (kind, txn_id) in enumerate(zip(kinds, txn_ids)):
        opens = False
        if kind in (REC_PREPARE, REC_TM_BEGIN):
            opens = (kind, txn_id) not in firsts and (kind, txn_id) not in closed
            firsts.add((kind, txn_id))
        elif kind in _RESOLVES:
            closed.add((_RESOLVES[kind][0], txn_id))
        if payloaded[lsn] and not opens:
            out.add(lsn)
    return out


def _retained_spec(wal, payloaded):
    """What the log must still hold: the in-doubt transactions' first
    ``prepare``, the unfinished rounds' ``tm-begin``, and every payload no
    record resolves."""
    recovery = {wal.prepare_record(t).lsn for t in wal.in_doubt_scan()}
    recovery |= {r.lsn for r in wal.tm_unfinished_scan()}
    payload_lsns = {lsn for lsn, has in enumerate(payloaded) if has}
    return (recovery & payload_lsns) | _unresolvable(wal.kinds, wal.txn_ids, payloaded)


class TestPayloadRelease:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_APPENDS)
    # duplicate decisions, a pledge, a late prepare after it
    @example([
        (REC_PREPARE, 1, False, 0.1), (REC_PRECOMMIT, 1, False, 0.2),
        (REC_COMMIT, 1, False, 0.3), (REC_ABORT, 1, False, 0.4),
        (REC_ABORT, 2, True, 0.5), (REC_PREPARE, 2, False, 0.6),
        (REC_PREPARE, 3, False, 0.7), (REC_PREPARE, 3, True, 0.8),
        (REC_ABORT, 3, False, 0.9),
    ])
    # a round decided, ended and re-begun; a round begun twice
    @example([
        (REC_TM_BEGIN, 1, False, 0.1), (REC_TM_PRECOMMIT, 1, False, 0.2),
        (REC_TM_COMMIT, 1, False, 0.3), (REC_TM_END, 1, False, 0.4),
        (REC_TM_BEGIN, 1, False, 0.5), (REC_TM_END, 1, False, 0.6),
        (REC_TM_BEGIN, 2, False, 0.7), (REC_TM_BEGIN, 2, False, 0.8),
        (REC_TM_ABORT, 2, False, 0.9), (REC_TM_END, 2, False, 1.0),
    ])
    def test_the_log_keeps_what_recovery_reads(self, appends):
        wal = WriteAheadLog(0)
        payloaded = []
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "node0.wal")
            disk = FileWriteAheadLog(0, path)
            for kind, txn_id, variant, t in appends:
                data = _payload(kind, txn_id, variant)
                payloaded.append(bool(data))
                wal.append(kind, txn_id, t, **data)
                disk.append(kind, txn_id, t, **data)
                for log in (wal, disk):
                    assert set(log._data) == _retained_spec(log, payloaded)
            disk.close()
            replayed = FileWriteAheadLog.replay(0, path)
            replayed.close()
        assert set(replayed._data) == set(wal._data) == _retained_spec(replayed, payloaded)


# -- the allocation diet, on a real run ----------------------------------------------

#: the crash storm's shape in the benchmark: four nodes every 5 s, for an hour
_STORMS = 720
_STORM_CONFIG = TxnConfig(
    prepare_timeout=0.5, client_timeout=2.0, retry_interval=0.25,
    status_interval=0.1, status_backoff=2.0, status_interval_max=0.5,
    termination_after=2, termination_timeout=0.25,
)


class TestCrashStormAllocations:
    """3PC read-modify-writes under the paced crash storm, 1 200 transactions."""

    @pytest.fixture(scope="class")
    def storm(self):
        depths = []  # (hot heap, far tier) sampled through the run
        prepared = {}  # (node, txn) -> the payload as it arrived
        resolved = {}  # (node, txn) -> the logged payload as its decision came
        payloaded = {}  # node -> per LSN, whether the record carried a payload
        on_prepare = TxnParticipant.on_prepare
        resolve = TxnParticipant._resolve
        append = WriteAheadLog.append

        def spy(self, txn_id, tm_node, writes, read_versions, co_participants=()):
            prepared.setdefault(
                (self.node_id, txn_id), (dict(writes), list(co_participants))
            )
            on_prepare(self, txn_id, tm_node, writes, read_versions, co_participants)

        def resolve_spy(self, p, commit):
            data = self.wal.prepare_record(p.txn_id).data
            resolved[(self.node_id, p.txn_id)] = (dict(data["writes"]), list(data["co"]))
            resolve(self, p, commit)

        def append_spy(self, kind, txn_id, time, **data):
            payloaded.setdefault(self.node_id, []).append(bool(data))
            return append(self, kind, txn_id, time, **data)

        def script(injector):
            for k in range(_STORMS):
                injector.crash_storm(
                    [0, 2, 5, 7], start=1.0 + 5.0 * k, interval=0.5, downtime=1.5
                )
            sim = injector.store.sim

            def sample():
                depths.append((len(sim._heap), len(sim._far)))
                sim.post_at(sim.now + 0.25, sample)

            sim.post_at(sim.now, sample)

        with mock.patch.object(TxnParticipant, "on_prepare", spy), \
                mock.patch.object(TxnParticipant, "_resolve", resolve_spy), \
                mock.patch.object(WriteAheadLog, "append", append_spy):
            outcome = run(RunSpec(
                platform=storm_txn_platform(),
                policy=named_policy_factory("quorum"),
                txn_workload=TxnWorkloadSpec(
                    name="read-modify-write", n_keys=1, read_slots=(0,),
                    write_slots=(0,), record_count=400),
                ops=1_200, clients=12, seed=11, warmup_fraction=0.0,
                commit_protocol="3pc", failure_script=script, txn_config=_STORM_CONFIG,
            ))
        return outcome, depths, prepared, resolved, payloaded

    def test_the_storm_reached_recovery(self, storm):
        outcome = storm[0]
        txn = outcome.report.txn
        assert txn["in_doubt_recovered"] > 0 and txn["tm_recovery_resolved"] > 0
        # the counts a log that kept every payload gave on this run
        assert (txn["in_doubt_recovered"], txn["tm_recovery_resolved"],
                txn["termination_resolved"]) == (19, 21, 7)

    def test_each_log_keeps_what_recovery_reads(self, storm):
        outcome, _, _, _, payloaded = storm
        wals = outcome.tstore.wals
        assert sum(len(w) for w in wals) > 10_000
        for wal in wals:
            assert len(payloaded[wal.node_id]) == len(wal)
            assert set(wal._data) == _retained_spec(wal, payloaded[wal.node_id])
        assert sum(len(w._data) for w in wals) < 20

    def test_no_record_object_and_no_script_event_is_alive(self, storm):
        outcome = storm[0]
        assert sum(len(w) for w in outcome.tstore.wals) > 1_000
        gc.collect()
        alive = gc.get_objects()
        assert not [o for o in alive if type(o) is WalRecord]
        script_fns = {
            FailureInjector._do_crash, FailureInjector._do_recover,
            FailureInjector._do_partition, FailureInjector._do_heal,
        }
        assert not [
            o for o in alive
            if type(o) is Event and getattr(o.fn, "__func__", None) in script_fns
        ]

    def test_the_script_stays_out_of_the_hot_heap(self, storm):
        outcome, depths = storm[:2]
        sim = outcome.store.sim
        assert len(depths) > 20 and sim.now > 5.0
        assert all(hot < 1_000 for hot, _ in depths)
        assert all(far > 5_000 for _, far in depths)

    def test_shared_prepare_payloads_are_never_mutated(self, storm):
        outcome, _, prepared, resolved, _ = storm
        for key, payload in resolved.items():
            assert payload == prepared[key]
        checked = len(resolved)
        for node, wal in enumerate(outcome.tstore.wals):
            for txn_id in wal.in_doubt():  # still logged: never resolved
                data = wal.prepare_record(txn_id).data
                assert (data["writes"], list(data["co"])) == prepared[(node, txn_id)]
                checked += 1
        assert checked > 1_000
