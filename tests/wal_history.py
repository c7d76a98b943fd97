"""A log's whole record stream, for the tests that audit one.

:class:`~repro.txn.wal.WriteAheadLog` keeps, in memory, a mask byte per
transaction and the open rows only. The tests that read every record a run
logged inject :class:`RecordingLog` through the ``wal_factory`` seam
(``TransactionalStore(..., wal_factory=RecordingLog)`` or
``repro.facade._pipeline(spec, wal_factory=RecordingLog)``); a file WAL's
records are its file's lines (:func:`file_records`). The two scans are the
full-scan specification of the log's ``in_doubt`` and ``tm_unfinished``.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Tuple

from repro.runtime.codec import loads
from repro.txn.wal import (
    REC_ABORT,
    REC_COMMIT,
    REC_PREPARE,
    REC_TM_BEGIN,
    REC_TM_END,
    WalRecord,
    WriteAheadLog,
)


def in_doubt_scan(records: Iterable[WalRecord]) -> List[int]:
    """Transactions with a ``prepare`` and no ``commit``/``abort``, in
    first-``prepare`` order."""
    records = list(records)
    decided = {r.txn_id for r in records if r.kind in (REC_COMMIT, REC_ABORT)}
    out = {}
    for rec in records:
        if rec.kind == REC_PREPARE and rec.txn_id not in decided:
            out.setdefault(rec.txn_id, None)
    return list(out)


def tm_unfinished_scan(records: Iterable[WalRecord]) -> List[WalRecord]:
    """Every ``tm-begin`` of a transaction with no ``tm-end``, in LSN order."""
    records = list(records)
    ended = {r.txn_id for r in records if r.kind == REC_TM_END}
    return [r for r in records if r.kind == REC_TM_BEGIN and r.txn_id not in ended]


def file_records(path: str) -> List[WalRecord]:
    """The records a file WAL holds, one per line, as the file gives them."""
    with open(path, encoding="utf-8") as fh:
        return [
            WalRecord(obj["lsn"], obj["txn"], obj["kind"], obj["t"], obj["data"])
            for obj in map(loads, fh)
        ]


class RecordingLog(WriteAheadLog):
    """A :class:`WriteAheadLog` that also keeps every record it is given.

    Rows are tuples; :attr:`records` builds :class:`WalRecord` views on
    demand, so a run that records keeps no record object alive.
    """

    def __init__(self, node_id: int):
        super().__init__(node_id)
        self.rows: List[Tuple[int, str, float, Any]] = []

    def append(self, kind: str, txn_id: int, time: float, **data: Any) -> int:
        lsn = super().append(kind, txn_id, time, **data)
        self.rows.append((int(txn_id), kind, float(time), data))
        return lsn

    @property
    def records(self) -> List[WalRecord]:
        """Every record, in LSN order."""
        return [WalRecord(lsn, *row) for lsn, row in enumerate(self.rows)]

    def records_for(self, txn_id: int) -> List[WalRecord]:
        """All records of one transaction, in LSN order."""
        return [r for r in self.records if r.txn_id == txn_id]

    def kinds_for(self, txn_id: int) -> Tuple[str, ...]:
        """The record kinds logged for one transaction, in LSN order."""
        return tuple(r.kind for r in self.records_for(txn_id))

    def in_doubt_scan(self) -> List[int]:
        return in_doubt_scan(self.records)

    def tm_unfinished_scan(self) -> List[WalRecord]:
        return tm_unfinished_scan(self.records)


def open_lsns(wal: WriteAheadLog) -> List[int]:
    """The LSNs of the rows ``wal`` holds in memory, ascending."""
    return sorted(
        row[0] for rows in (wal._in_doubt, wal._tm_pending) for row in rows.values()
    )
