"""Per-node write-ahead logs for the atomic-commit protocols.

Each node keeps one append-only log shared by its two transaction roles
(participant and transaction manager). The log is the *durable* half of a
node: when the failure injector crashes a node, every in-memory structure
(prepare locks, vote state, the TM's in-flight table) is wiped, and the
recovery pass rebuilds exactly what the log proves -- which is what makes
the crash-window tests meaningful rather than trivial.

Record kinds (presumed-abort 2PC, plus the 3PC pre-commit phase):

==================  =====================================================
``prepare``         participant voted YES; payload carries the buffered
                    writes *and the co-participant list* so a recovered
                    node can still apply them and run the cooperative
                    termination protocol
``precommit``       participant learned PRE-COMMIT (3PC only): every
                    participant voted YES, commit is now inevitable
                    unless the whole round dies
``commit``          participant learned COMMIT and applied its writes
``abort``           participant learned ABORT and discarded its writes
                    (also logged as a *refusal pledge* by an unprepared
                    peer answering a termination query -- it guarantees
                    the peer can never vote YES afterwards)
``tm-begin``        TM started a commit round; payload carries the
                    participant list (the recovery pass needs it)
``tm-precommit``    TM collected all YES votes under 3PC and entered the
                    pre-commit phase; recovery drives the round forward
``tm-commit``       TM's forced commit decision -- the transaction's
                    one-record commit point
``tm-abort``        TM's abort decision (not strictly required under
                    presumed abort, logged for observability)
``tm-end``          every participant acknowledged the decision; the
                    transaction needs no further recovery work
==================  =====================================================

A participant is **in doubt** when its log holds a ``prepare`` without a
matching ``commit``/``abort``; a TM round is **unfinished** when it holds a
``tm-begin`` without ``tm-end``. The protocols ask the log such questions
on almost every message, so it keeps a **derived index**, updated only in
:meth:`append`: one int per transaction with a bit per record kind seen
(of a role's two decision bits only the *first* decision logged is set --
the first-in-LSN-order rule of :meth:`decision_for` / :meth:`tm_decision`),
the transaction's first ``prepare`` record, and the **incremental pending
sets** behind :meth:`in_doubt` / :meth:`tm_unfinished`, kept in
first-record LSN order so recovery replays in a deterministic sequence.
Every per-message query is one dict lookup and a mask. The scan variants
(:meth:`in_doubt_scan`, :meth:`tm_unfinished_scan`) recompute the pending
sets from the records alone and remain the executable specification the
tests assert against; :meth:`records_for` / :meth:`kinds_for` filter the
whole log and are audit/test API.

The log is **columnar**: a typed ``txn_ids`` (``array('q')``) and ``times``
(``array('d')``) column and a ``kinds`` list of interned strings, indexed
by LSN, plus LSN -> payload for the records that carry one. An append
allocates no record object for the garbage collector to traverse; the read
APIs build :class:`WalRecord` views on demand.

The log keeps every record but **releases a payload at the record that
resolves it**: the first ``commit``/``abort`` of an in-doubt transaction
drops its first ``prepare``'s payload, ``tm-end`` of an unfinished round its
``tm-begin``'s. Recovery reads a payload only while its transaction is in
doubt or its round unfinished, so what stays is what recovery can read plus
the payloads no record resolves (abort pledges, a ``prepare`` after a
pledge, a ``tm-begin`` after its ``tm-end``). A released record's view has
``data == {}``; every kind, time, LSN and index answer is kept.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "WalRecord",
    "WriteAheadLog",
    "REC_PREPARE",
    "REC_PRECOMMIT",
    "REC_COMMIT",
    "REC_ABORT",
    "REC_TM_BEGIN",
    "REC_TM_PRECOMMIT",
    "REC_TM_COMMIT",
    "REC_TM_ABORT",
    "REC_TM_END",
]

REC_PREPARE = "prepare"
REC_PRECOMMIT = "precommit"
REC_COMMIT = "commit"
REC_ABORT = "abort"
REC_TM_BEGIN = "tm-begin"
REC_TM_PRECOMMIT = "tm-precommit"
REC_TM_COMMIT = "tm-commit"
REC_TM_ABORT = "tm-abort"
REC_TM_END = "tm-end"

#: Participant-side records that resolve an in-doubt ``prepare``.
_DECISIONS = (REC_COMMIT, REC_ABORT)

#: Record kind -> its bit in the per-transaction ``_seen`` mask.
_BIT = {
    kind: 1 << i
    for i, kind in enumerate([
        REC_PREPARE, REC_PRECOMMIT, REC_COMMIT, REC_ABORT, REC_TM_BEGIN,
        REC_TM_PRECOMMIT, REC_TM_COMMIT, REC_TM_ABORT, REC_TM_END,
    ])
}
_PRECOMMIT = _BIT[REC_PRECOMMIT]
_COMMIT = _BIT[REC_COMMIT]
_DECIDED = _COMMIT | _BIT[REC_ABORT]
_TM_PRECOMMIT = _BIT[REC_TM_PRECOMMIT]
_TM_COMMIT = _BIT[REC_TM_COMMIT]
_TM_DECIDED = _TM_COMMIT | _BIT[REC_TM_ABORT]
_TM_END = _BIT[REC_TM_END]


class WalRecord:
    """One durable log entry (a view over a :class:`WriteAheadLog` row)."""

    __slots__ = ("lsn", "txn_id", "kind", "time", "data")

    def __init__(self, lsn: int, txn_id: int, kind: str, time: float, data: Dict[str, Any]):
        self.lsn = lsn
        self.txn_id = txn_id
        self.kind = kind
        self.time = time
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WalRecord(lsn={self.lsn}, txn={self.txn_id}, {self.kind})"


class WriteAheadLog:
    """Append-only per-node log with a per-transaction bit index.

    ``append`` is the only mutator. It keeps every record (the end-of-run
    audit of transactions still in doubt stays exact) and releases a
    payload at the record that resolves it. The index and the pending sets
    below are pure derived state: every update happens inside ``append``
    and the scan methods recompute them from the records alone.
    """

    def __init__(self, node_id: int):
        self.node_id = int(node_id)
        #: The records, one column per field; row ``lsn`` is record ``lsn``.
        self.txn_ids = array("q")
        self.kinds: List[str] = []
        self.times = array("d")
        #: lsn -> payload, for the records logged with one, until the record
        #: that resolves it.
        self._data: Dict[int, Dict[str, Any]] = {}
        #: txn_id -> mask of the record kinds logged for it (``_BIT``); per
        #: role only the first decision's bit is ever set.
        self._seen: Dict[int, int] = {}
        #: txn_id -> the LSN of its first ``prepare`` record.
        self._prepare: Dict[int, int] = {}
        #: txn_id -> its first ``prepare`` LSN; prepared-here-but-undecided,
        #: in prepare LSN order (dict preserves insertion order).
        self._in_doubt: Dict[int, int] = {}
        #: txn_id -> its ``tm-begin`` LSN, without ``tm-end``, in order.
        self._tm_pending: Dict[int, int] = {}

    def append(self, kind: str, txn_id: int, time: float, **data: Any) -> int:
        """Durably append one record and return its LSN."""
        bit = _BIT[kind]
        txn_id = int(txn_id)
        lsn = len(self.kinds)
        self.kinds.append(kind)
        self.txn_ids.append(txn_id)
        self.times.append(float(time))
        if data:
            self._data[lsn] = data
        seen = self._seen.get(txn_id, 0)
        if kind == REC_PREPARE:
            self._prepare.setdefault(txn_id, lsn)
            if not seen & _DECIDED:
                self._in_doubt.setdefault(txn_id, lsn)
        elif bit & _DECIDED:
            # The first decision releases the in-doubt prepare's payload.
            self._data.pop(self._in_doubt.pop(txn_id, None), None)
            if seen & _DECIDED:
                bit = 0  # the first decision stands
        elif bit & _TM_DECIDED:
            if seen & _TM_DECIDED:
                bit = 0  # the first decision stands
        elif kind == REC_TM_BEGIN:
            if not seen & _TM_END:
                self._tm_pending.setdefault(txn_id, lsn)
        elif kind == REC_TM_END:
            self._data.pop(self._tm_pending.pop(txn_id, None), None)
        self._seen[txn_id] = seen | bit
        return lsn

    def _view(self, lsn: int) -> WalRecord:
        return WalRecord(lsn, self.txn_ids[lsn], self.kinds[lsn], self.times[lsn],
                         self._data.get(lsn, {}))

    @property
    def records(self) -> List[WalRecord]:
        """Every record, in LSN order (audit/test API: one view per row)."""
        return list(map(self._view, range(len(self.kinds))))

    def records_for(self, txn_id: int) -> List[WalRecord]:
        """All records of one transaction, in LSN order (audit/test API:
        filters the whole log)."""
        txn_id = int(txn_id)
        return [self._view(lsn) for lsn, t in enumerate(self.txn_ids) if t == txn_id]

    def kinds_for(self, txn_id: int) -> Tuple[str, ...]:
        """The record kinds logged for one transaction, in LSN order
        (audit/test API: filters the whole log)."""
        return tuple(r.kind for r in self.records_for(txn_id))

    def prepare_record(self, txn_id: int) -> Optional[WalRecord]:
        """The ``prepare`` record of a transaction, if one was logged."""
        lsn = self._prepare.get(int(txn_id))
        return None if lsn is None else self._view(lsn)

    def decision_for(self, txn_id: int) -> Optional[str]:
        """``"commit"``/``"abort"`` if this *participant* decided, else ``None``.

        This is the authoritative answer a peer may give to a cooperative
        termination query: a logged participant decision can only have come
        from the TM's (or a previously terminated peer's) verdict.
        """
        decided = self._seen.get(int(txn_id), 0) & _DECIDED
        if not decided:
            return None
        return "commit" if decided == _COMMIT else "abort"

    def precommitted(self, txn_id: int) -> bool:
        """True if this participant logged a 3PC ``precommit``."""
        return bool(self._seen.get(int(txn_id), 0) & _PRECOMMIT)

    def in_doubt(self) -> List[int]:
        """Transactions prepared here but never decided, in prepare order.

        O(pending) from the incremental set; equal to :meth:`in_doubt_scan`
        by construction (asserted in the tests).
        """
        return list(self._in_doubt)

    def in_doubt_scan(self) -> List[int]:
        """The full-scan specification of :meth:`in_doubt` (tests only)."""
        decided = {r.txn_id for r in self.records if r.kind in _DECISIONS}
        out: Dict[int, None] = {}
        for rec in self.records:
            if rec.kind == REC_PREPARE and rec.txn_id not in decided:
                out.setdefault(rec.txn_id, None)
        return list(out)

    def tm_decision(self, txn_id: int) -> Optional[str]:
        """``"commit"``/``"abort"`` if this node's TM decided, else ``None``."""
        decided = self._seen.get(int(txn_id), 0) & _TM_DECIDED
        if not decided:
            return None
        return "commit" if decided == _TM_COMMIT else "abort"

    def tm_precommitted(self, txn_id: int) -> bool:
        """True if this node's TM logged a 3PC ``tm-precommit``."""
        return bool(self._seen.get(int(txn_id), 0) & _TM_PRECOMMIT)

    def tm_unfinished(self) -> List[WalRecord]:
        """``tm-begin`` records without a matching ``tm-end``, in LSN order.

        O(pending) from the incremental set; equal to
        :meth:`tm_unfinished_scan` by construction (asserted in the tests).
        """
        return list(map(self._view, self._tm_pending.values()))

    def tm_unfinished_scan(self) -> List[WalRecord]:
        """The full-scan specification of :meth:`tm_unfinished` (tests only)."""
        ended = {r.txn_id for r in self.records if r.kind == REC_TM_END}
        return [
            rec
            for rec in self.records
            if rec.kind == REC_TM_BEGIN and rec.txn_id not in ended
        ]

    def __len__(self) -> int:
        return len(self.kinds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WriteAheadLog(node={self.node_id}, records={len(self.kinds)})"
