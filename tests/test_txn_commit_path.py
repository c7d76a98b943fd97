"""The commit path's storage: a WAL that holds only open transactions.

- :class:`~repro.txn.wal.WriteAheadLog` must answer every query exactly as
  a plain list of :class:`~repro.txn.wal.WalRecord` would, live and after a
  :class:`~repro.runtime.wal.FileWriteAheadLog` replay, for transaction ids
  spread up to 4 096 (the mask's growth path); the file keeps every record.
- After every append the log holds in memory exactly the open rows: each
  in-doubt transaction's first ``prepare`` and each unfinished round's
  first ``tm-begin``; so does a crash-storm run at its end. A settled
  transaction costs one byte, and a negative transaction id is refused.
- A 3PC crash-storm run must leave no ``WalRecord`` and no failure-script
  ``Event`` alive, keep the script out of the hot event heap, and never
  mutate a prepare payload it shares between the TM, the participant and
  the log.
"""

from __future__ import annotations

import gc
import os
import tempfile
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.failures import FailureInjector
from repro.cluster.versions import Version
from repro.experiments.platforms import storm_txn_platform
from repro.experiments.runner import named_policy_factory
from repro.facade import RunSpec, _pipeline
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
from tests.wal_history import (
    RecordingLog,
    file_records,
    in_doubt_scan,
    open_lsns,
    tm_unfinished_scan,
)

_KINDS = (
    REC_PREPARE, REC_PRECOMMIT, REC_COMMIT, REC_ABORT, REC_TM_BEGIN,
    REC_TM_PRECOMMIT, REC_TM_COMMIT, REC_TM_ABORT, REC_TM_END,
)
#: ids queried besides those logged (10**6 lies beyond every mask)
_UNLOGGED = (5, 10**6)


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


class _RecordLog:
    """The reference: a list of ``WalRecord`` and a scan for every answer."""

    def __init__(self):
        self.records = []

    def append(self, kind, txn_id, time, **data):
        self.records.append(WalRecord(len(self.records), txn_id, kind, float(time), data))

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

    def in_doubt_prepare(self, txn_id):
        """The first ``prepare`` of ``txn_id`` while it is in doubt, else None."""
        if txn_id in self.in_doubt():
            return self.first(txn_id, REC_PREPARE)
        return None

    def open_lsns(self):
        return sorted(
            [self.first(t, REC_PREPARE).lsn for t in self.in_doubt()]
            + [r.lsn for r in self.tm_unfinished()]
        )


def _fields(records):
    return [(r.lsn, r.txn_id, r.kind, r.time, r.data) for r in records]


def _assert_same_log(log: WriteAheadLog, ref: _RecordLog) -> None:
    """Every query of ``log`` against the reference and against the scans."""
    assert len(log) == len(ref.records)
    for txn_id in {r.txn_id for r in ref.records} | set(_UNLOGGED):
        prepare = ref.in_doubt_prepare(txn_id)
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
    assert log.in_doubt() == ref.in_doubt() == in_doubt_scan(ref.records)
    assert _fields(log.tm_unfinished()) == _fields(ref.tm_unfinished())
    assert open_lsns(log) == ref.open_lsns()


def _assert_same_history(log: RecordingLog, ref: _RecordLog) -> None:
    """The recording's whole-history API against the reference."""
    assert _fields(log.records) == _fields(ref.records)
    assert all(type(r) is WalRecord for r in log.records)
    for txn_id in {r.txn_id for r in ref.records} | set(_UNLOGGED):
        assert _fields(log.records_for(txn_id)) == _fields(
            r for r in ref.records if r.txn_id == txn_id
        )
        assert log.kinds_for(txn_id) == tuple(
            r.kind for r in ref.records if r.txn_id == txn_id
        )
    assert log.in_doubt_scan() == ref.in_doubt()
    ended = {r.txn_id for r in ref.records if r.kind == REC_TM_END}
    assert _fields(log.tm_unfinished_scan()) == _fields(
        r for r in ref.records if r.kind == REC_TM_BEGIN and r.txn_id not in ended
    )


_APPENDS = st.lists(
    st.tuples(
        st.sampled_from(_KINDS),
        # a few ids that collide, and ids spread up to 4 096
        st.one_of(st.integers(1, 4), st.integers(0, 4096)),
        st.booleans(),
        st.floats(0.0, 1e3, allow_nan=False),
    ),
    max_size=40,
)


class TestTheLogIsTheRecordLog:
    @settings(max_examples=200, deadline=None)
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
    # duplicate decisions, a pledge, a late prepare after it, a prepare twice
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
    # the mask grows past ids it already holds, and from id 0
    @example([
        (REC_PREPARE, 4096, False, 0.1), (REC_COMMIT, 7, False, 0.2),
        (REC_TM_BEGIN, 0, False, 0.3), (REC_COMMIT, 4096, False, 0.4),
    ])
    def test_every_read_api_matches_live_and_after_replay(self, appends):
        ref = _RecordLog()
        wal = WriteAheadLog(0)
        recording = RecordingLog(0)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "node0.wal")
            disk = FileWriteAheadLog(0, path)
            for lsn, (kind, txn_id, variant, t) in enumerate(appends):
                data = _payload(kind, txn_id, variant)
                ref.append(kind, txn_id, t, **data)
                for log in (wal, recording, disk):
                    assert log.append(kind, txn_id, t, **data) == lsn
                    assert open_lsns(log) == ref.open_lsns()
            disk.close()
            replayed = FileWriteAheadLog.replay(0, path)
            replayed.close()
            assert _fields(file_records(path)) == _fields(ref.records)
        for log in (wal, recording, disk, replayed):
            _assert_same_log(log, ref)
        _assert_same_history(recording, ref)


class TestOpenRowsOnly:
    def test_a_settled_transaction_keeps_no_row(self):
        wal = WriteAheadLog(0)
        wal.append(REC_TM_BEGIN, 1, 0.1, participants=[0, 1])
        wal.append(REC_TM_COMMIT, 1, 0.2)
        wal.append(REC_ABORT, 2, 0.3, pledge=True)
        assert open_lsns(wal) == [0] and wal.decision_for(2) == "abort"
        wal.append(REC_TM_END, 1, 0.4)  # txn 1's round is over: recovery skips it
        assert open_lsns(wal) == [] and wal.tm_decision(1) == "commit"
        assert len(wal) == 4

    def test_a_settled_transaction_costs_a_byte(self):
        n = 50_000
        writes = {"user1": Version(1.0, 1, 1_000)}
        wal = WriteAheadLog(0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for txn_id in range(1, n + 1):
                wal.append(REC_TM_BEGIN, txn_id, 0.5, participants=[0, 1])
                wal.append(REC_PREPARE, txn_id, 0.5, tm_node=0, writes=writes, co=[1])
                wal.append(REC_TM_COMMIT, txn_id, 0.6)
                wal.append(REC_COMMIT, txn_id, 0.6)
                wal.append(REC_TM_END, txn_id, 0.7)
            traced = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(wal) == 5 * n
        assert wal.in_doubt() == [] and wal.tm_unfinished() == []
        assert wal.decision_for(n) == wal.tm_decision(n) == "commit"
        assert traced <= 1.2 * n + 4096, traced

    def test_a_negative_transaction_id_is_refused(self):
        wal = WriteAheadLog(0)
        wal.append(REC_PREPARE, 0, 0.1, tm_node=0, writes={})
        with pytest.raises(ValueError):
            wal.append(REC_COMMIT, -1, 0.2)
        # nothing logged under -1 (the mask's last byte is txn 0's)
        assert wal.decision_for(-1) is wal.tm_decision(-1) is None
        assert wal.precommitted(-1) is wal.tm_precommitted(-1) is False
        assert wal.prepare_record(-1) is None
        assert len(wal) == 1 and wal.in_doubt() == [0] and wal.decision_for(0) is None


def _open_spec(records):
    """The rows the log must hold: each in-doubt transaction's first
    ``prepare`` and each unfinished round's first ``tm-begin``, by a scan."""
    firsts = {}
    for r in records:
        firsts.setdefault((r.kind, r.txn_id), r.lsn)
    out = {firsts[(REC_PREPARE, t)] for t in in_doubt_scan(records)}
    out |= {firsts[(REC_TM_BEGIN, r.txn_id)] for r in tm_unfinished_scan(records)}
    return sorted(out)


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
        on_prepare = TxnParticipant.on_prepare
        resolve = TxnParticipant._resolve

        def spy(self, txn_id, tm_node, writes, read_versions, co_participants=()):
            prepared.setdefault(
                (self.node_id, txn_id), (dict(writes), list(co_participants))
            )
            on_prepare(self, txn_id, tm_node, writes, read_versions, co_participants)

        def resolve_spy(self, p, commit):
            data = self.wal.prepare_record(p.txn_id).data
            resolved[(self.node_id, p.txn_id)] = (dict(data["writes"]), list(data["co"]))
            resolve(self, p, commit)

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
                mock.patch.object(TxnParticipant, "_resolve", resolve_spy):
            outcome = _pipeline(RunSpec(
                platform=storm_txn_platform(),
                policy=named_policy_factory("quorum"),
                txn_workload=TxnWorkloadSpec(
                    name="read-modify-write", n_keys=1, read_slots=(0,),
                    write_slots=(0,), record_count=400),
                ops=1_200, clients=12, seed=11, warmup_fraction=0.0,
                commit_protocol="3pc", failure_script=script, txn_config=_STORM_CONFIG,
            ), wal_factory=RecordingLog)
        return outcome, depths, prepared, resolved

    def test_the_storm_reached_recovery(self, storm):
        outcome = storm[0]
        txn = outcome.report.txn
        assert txn["in_doubt_recovered"] > 0 and txn["tm_recovery_resolved"] > 0
        # the counts a log that kept every record gave on this run
        assert (txn["in_doubt_recovered"], txn["tm_recovery_resolved"],
                txn["termination_resolved"]) == (19, 21, 7)

    def test_each_log_keeps_what_recovery_reads(self, storm):
        wals = storm[0].tstore.wals
        assert sum(len(w) for w in wals) > 10_000
        for wal in wals:
            assert len(wal.rows) == len(wal)
            assert open_lsns(wal) == _open_spec(wal.records)
        assert sum(len(open_lsns(w)) for w in wals) < 20

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
        outcome, _, prepared, resolved = storm
        for key, payload in resolved.items():
            assert payload == prepared[key]
        checked = len(resolved)
        for node, wal in enumerate(outcome.tstore.wals):
            for txn_id in wal.in_doubt():  # still logged: never resolved
                data = wal.prepare_record(txn_id).data
                assert (data["writes"], list(data["co"])) == prepared[(node, txn_id)]
                checked += 1
        assert checked > 1_000
