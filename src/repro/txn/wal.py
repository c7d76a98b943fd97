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
``tm-begin`` without ``tm-end``. Recovery reads back the payload of those
two kinds of record and nothing else; every other question the protocols
ask the log is whether a transaction logged some kind. So, in memory, the
log keeps only:

- the **record count**, which numbers the LSNs;
- a **mask** of one byte per transaction id, with a bit for each kind a
  query reads (``precommit``, ``commit``, ``abort``, ``tm-precommit``,
  ``tm-commit``, ``tm-abort``, ``tm-end``). Of a role's two decision bits
  only the *first* decision logged is set: the first-in-LSN-order rule of
  :meth:`decision_for` / :meth:`tm_decision`;
- the **open rows**, ``txn_id -> (lsn, time, data)``: each in-doubt
  transaction's first ``prepare`` until its first decision, and each
  unfinished round's first ``tm-begin`` until its ``tm-end``, in LSN order
  so recovery replays in a deterministic sequence.

Transaction ids come from one dense counter (``TransactionalStore.begin``
numbers them 1, 2, ... on either engine), so the mask is a ``bytearray``
indexed by id that grows to the largest id logged; ``append`` refuses an id
below zero with a ``ValueError``, so no query finds one logged. A settled
transaction costs its one byte. Nothing is forgotten: the byte is the
transaction's summary, as in R*'s log (Mohan, Lindsay and Obermarck, TODS
1986), and it still answers a late termination query or a duplicate
``prepare`` with the decision logged. Every query is a mask test or a dict
lookup; :meth:`prepare_record` and :meth:`tm_unfinished` build
:class:`WalRecord` views of open rows on demand. The file WAL
(:mod:`repro.runtime.wal`) keeps every record.
"""

from __future__ import annotations

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

#: Record kind -> its bit in a transaction's mask byte. No query reads
#: ``prepare`` or ``tm-begin``, so they have none.
_BIT = {
    REC_PREPARE: 0,
    REC_TM_BEGIN: 0,
    **{
        kind: 1 << i
        for i, kind in enumerate([
            REC_PRECOMMIT, REC_COMMIT, REC_ABORT, REC_TM_PRECOMMIT,
            REC_TM_COMMIT, REC_TM_ABORT, REC_TM_END,
        ])
    },
}
_PRECOMMIT = _BIT[REC_PRECOMMIT]
_COMMIT = _BIT[REC_COMMIT]
_DECIDED = _COMMIT | _BIT[REC_ABORT]
_TM_PRECOMMIT = _BIT[REC_TM_PRECOMMIT]
_TM_COMMIT = _BIT[REC_TM_COMMIT]
_TM_DECIDED = _TM_COMMIT | _BIT[REC_TM_ABORT]
_TM_END = _BIT[REC_TM_END]

#: An open row: the record's LSN, time and payload.
_Row = Tuple[int, float, Dict[str, Any]]


class WalRecord:
    """One durable log entry (a view over an open row of a :class:`WriteAheadLog`)."""

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
    """Append-only per-node log: a kind mask per transaction and the open rows.

    ``append`` is the only mutator; the mask and the open rows are derived
    from the records appended, in order, so a replay of the same records
    rebuilds the same log.
    """

    def __init__(self, node_id: int):
        self.node_id = int(node_id)
        self._n = 0
        #: txn_id -> the ``_BIT`` mask of the kinds logged for it.
        self._mask = bytearray()
        #: txn_id -> its first ``prepare`` row, until its first decision.
        self._in_doubt: Dict[int, _Row] = {}
        #: txn_id -> its first ``tm-begin`` row, until its ``tm-end``.
        self._tm_pending: Dict[int, _Row] = {}

    def append(self, kind: str, txn_id: int, time: float, **data: Any) -> int:
        """Durably append one record and return its LSN."""
        bit = _BIT[kind]
        txn_id = int(txn_id)
        if txn_id < 0:
            raise ValueError(f"a transaction id is >= 0, got {txn_id}")
        mask = self._mask
        if txn_id >= len(mask):
            mask.extend(bytes(txn_id + 1 - len(mask)))
        lsn = self._n
        self._n = lsn + 1
        seen = mask[txn_id]
        if kind == REC_PREPARE:
            if not seen & _DECIDED and txn_id not in self._in_doubt:
                self._in_doubt[txn_id] = (lsn, float(time), data)
        elif bit & _DECIDED:
            self._in_doubt.pop(txn_id, None)
            if seen & _DECIDED:
                bit = 0  # the first decision stands
        elif bit & _TM_DECIDED:
            if seen & _TM_DECIDED:
                bit = 0  # the first decision stands
        elif kind == REC_TM_BEGIN:
            if not seen & _TM_END and txn_id not in self._tm_pending:
                self._tm_pending[txn_id] = (lsn, float(time), data)
        elif kind == REC_TM_END:
            self._tm_pending.pop(txn_id, None)
        mask[txn_id] = seen | bit
        return lsn

    def prepare_record(self, txn_id: int) -> Optional[WalRecord]:
        """The first ``prepare`` record of an in-doubt transaction, else ``None``.

        Recovery and the termination protocol ask only about transactions
        not decided here; a decided transaction's ``prepare`` is not kept.
        """
        txn_id = int(txn_id)
        row = self._in_doubt.get(txn_id)
        if row is None:
            return None
        lsn, time, data = row
        return WalRecord(lsn, txn_id, REC_PREPARE, time, data)

    def decision_for(self, txn_id: int) -> Optional[str]:
        """``"commit"``/``"abort"`` if this *participant* decided, else ``None``.

        This is the authoritative answer a peer may give to a cooperative
        termination query: a logged participant decision can only have come
        from the TM's (or a previously terminated peer's) verdict.
        """
        t, mask = int(txn_id), self._mask
        decided = mask[t] & _DECIDED if 0 <= t < len(mask) else 0
        if not decided:
            return None
        return "commit" if decided == _COMMIT else "abort"

    def precommitted(self, txn_id: int) -> bool:
        """True if this participant logged a 3PC ``precommit``."""
        t, mask = int(txn_id), self._mask
        return 0 <= t < len(mask) and bool(mask[t] & _PRECOMMIT)

    def in_doubt(self) -> List[int]:
        """Transactions prepared here but never decided, in prepare order."""
        return list(self._in_doubt)

    def tm_decision(self, txn_id: int) -> Optional[str]:
        """``"commit"``/``"abort"`` if this node's TM decided, else ``None``."""
        t, mask = int(txn_id), self._mask
        decided = mask[t] & _TM_DECIDED if 0 <= t < len(mask) else 0
        if not decided:
            return None
        return "commit" if decided == _TM_COMMIT else "abort"

    def tm_precommitted(self, txn_id: int) -> bool:
        """True if this node's TM logged a 3PC ``tm-precommit``."""
        t, mask = int(txn_id), self._mask
        return 0 <= t < len(mask) and bool(mask[t] & _TM_PRECOMMIT)

    def tm_unfinished(self) -> List[WalRecord]:
        """``tm-begin`` records without a matching ``tm-end``, in LSN order."""
        return [
            WalRecord(lsn, txn_id, REC_TM_BEGIN, time, data)
            for txn_id, (lsn, time, data) in self._tm_pending.items()
        ]

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WriteAheadLog(node={self.node_id}, records={self._n})"
