"""The transaction-manager (coordinator-side) state machines.

One :class:`TransactionManager` per node; a transaction is managed by the
TM of the node that coordinated it. The manager runs whichever protocol
``TxnConfig.commit_protocol`` selects:

**Presumed-abort 2PC** (``2pc``, ``2pc-coop``), as in the classic R*
protocol:

1. ``begin_commit`` assigns write versions, logs ``tm-begin`` (with the
   participant list -- the recovery pass needs it), and sends PREPARE to
   every replica of every written key; the prepare payload carries the
   co-participant list so prepared nodes can run cooperative termination;
2. all-YES votes force-log ``tm-commit`` -- the transaction's commit point
   -- after which the client is answered and COMMIT fans out; any NO vote
   or a prepare timeout logs ``tm-abort`` and fans out ABORT;
3. decisions are re-sent on a timer until every participant acknowledges,
   then ``tm-end`` closes the round.

**3PC** (``3pc``) inserts a pre-commit barrier between vote collection
and the commit point: all-YES votes log ``tm-precommit`` and fan out
PRE-COMMIT; the TM force-logs ``tm-commit`` and proceeds as above once
every participant acknowledged the pre-commit -- or when the ack window
(``prepare_timeout``) closes with a straggler missing, because once
``tm-precommit`` is logged the round can never abort: a crashed
participant cannot change the outcome and learns COMMIT from its
decision query on recovery. That same invariant lets blocked
participants drive themselves to commit when they hold a pre-commit
record and the TM is gone.

**Crash/recovery** -- a TM crash wipes the in-flight table, *including the
acks already collected*. Recovery scans the WAL for ``tm-begin`` without
``tm-end`` and resumes each round where the log proves it stood: a logged
``tm-commit`` is re-driven forward (resend COMMIT and collect a fresh ack
set -- participants that already decided re-ack immediately -- until
``tm-end`` is durable); a logged ``tm-precommit`` without ``tm-commit``
re-drives the pre-commit barrier forward to commit; an undecided round is
resolved to abort (presumed abort -- no participant can have received a
commit) and driven to ``tm-end`` the same way. Participants polling an
unknown transaction get an abort reply for the same reason, and polls for
a round still in flight get an explicit "working" reply (proof of TM
life, resetting the poller's termination countdown).

Everything is deterministic: participants are contacted in sorted node
order, retries iterate sorted un-acked sets, and all timing flows from
the owner's :class:`~repro.runtime.interface.Transport` clock -- the TM
never touches a simulator or network object directly, so the identical
state machine runs on the discrete-event and asyncio backends.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, TYPE_CHECKING

from repro.cluster.versions import Version
from repro.txn.wal import (
    REC_TM_ABORT,
    REC_TM_BEGIN,
    REC_TM_COMMIT,
    REC_TM_END,
    REC_TM_PRECOMMIT,
    WriteAheadLog,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.txn.api import Transaction, TransactionalStore

__all__ = ["TransactionManager"]


class _TmTxn:
    """Volatile state of one commit round this TM is driving."""

    __slots__ = (
        "txn_id",
        "participants",
        "writes_by_node",
        "writes_by_key",
        "votes",
        "acks",
        "precommit_acks",
        "precommitted",
        "decision",
        "timeout_event",
        "retry_event",
        "t_start",
    )

    def __init__(self, txn_id: int, participants: List[int]):
        self.txn_id = txn_id
        self.participants = participants
        self.writes_by_node: Dict[int, Dict[str, Version]] = {}
        self.writes_by_key: Dict[str, Version] = {}
        self.votes: Dict[int, bool] = {}
        self.acks: Set[int] = set()
        self.precommit_acks: Set[int] = set()
        self.precommitted = False
        self.decision: Optional[str] = None  # None until decided
        self.timeout_event: Any = None
        self.retry_event: Any = None
        self.t_start = 0.0


class TransactionManager:
    """Per-node atomic-commit coordinator (2PC or 3PC)."""

    def __init__(self, owner: "TransactionalStore", node_id: int, wal: WriteAheadLog):
        self.owner = owner
        self.node_id = int(node_id)
        self.wal = wal
        #: This role's storage node and the deployment's transport, bound
        #: once: neither is ever replaced for a node id.
        self.node = owner.store.nodes[self.node_id]
        self.tr = owner.store.transport
        self._active: Dict[int, _TmTxn] = {}
        # counters
        self.rounds_started = 0
        self.commits_decided = 0
        self.aborts_decided = 0
        self.recovery_resolved = 0

    # -- the commit round ---------------------------------------------------------

    def begin_commit(self, txn: "Transaction") -> None:
        """Run the commit protocol for ``txn``'s buffered writes."""
        owner = self.owner
        st = owner.store
        tr = self.tr
        now = tr.now
        writes_by_key: Dict[str, Version] = {}
        for key in sorted(txn.writes):
            st.write_seq += 1
            writes_by_key[key] = Version(now, st.write_seq, txn.writes[key])

        writes_by_node: Dict[int, Dict[str, Version]] = {}
        for key, version in writes_by_key.items():
            # Authoritative owners plus any incoming owners of a pending
            # migration: 2PC applies must land on both sides of a hand-off.
            for r in st.all_replicas(key):
                writes_by_node.setdefault(r, {})[key] = version
        participants = sorted(writes_by_node)

        self.rounds_started += 1
        self.wal.append(REC_TM_BEGIN, txn.txn_id, now, participants=participants)
        t = _TmTxn(txn.txn_id, participants)
        t.writes_by_node = writes_by_node
        t.writes_by_key = writes_by_key
        t.t_start = now
        self._active[txn.txn_id] = t
        obs = owner.obs
        if obs is not None:
            obs.on_txn_phase(
                txn.txn_id,
                "prepare",
                now,
                node=self.node_id,
                participants=len(participants),
            )

        validate = owner.config.validate_reads
        send = tr.send
        on = owner.participants
        for r in participants:
            node_writes = writes_by_node[r]
            read_versions = (
                {k: txn.read_versions[k] for k in sorted(node_writes) if k in txn.read_versions}
                if validate
                else {}
            )
            payload = st.sizes.request_overhead + sum(
                v.size for v in node_writes.values()
            )
            owner.txn_msgs += 1
            owner.txn_msg_bytes += payload
            send(
                self.node_id, r, payload, on[r].on_prepare,
                txn.txn_id, self.node_id, node_writes, read_versions, participants,
            )
        t.timeout_event = tr.set_timer(
            owner.config.prepare_timeout, self._on_prepare_timeout, txn.txn_id
        )

    def on_vote(self, txn_id: int, node_id: int, vote: bool) -> None:
        """A participant's YES/NO vote."""
        if not self.node.up:
            return
        t = self._active.get(txn_id)
        if t is None or t.decision is not None or t.precommitted:
            return  # decided already (timeout or earlier NO); late vote
        t.votes[node_id] = vote
        if not vote:
            self._decide(t, commit=False, reason="conflict")
        elif len(t.votes) == len(t.participants) and all(t.votes.values()):
            if self.owner.config.commit_protocol == "3pc":
                self._precommit(t)
            else:
                self._decide(t, commit=True)

    def _on_prepare_timeout(self, txn_id: int) -> None:
        t = self._active.get(txn_id)
        if t is None or t.decision is not None or not self.node.up:
            return
        if t.precommitted:
            return  # pragma: no cover - timeout is canceled at pre-commit
        self._decide(t, commit=False, reason="timeout")

    # -- the 3PC pre-commit barrier -----------------------------------------------

    def _precommit(self, t: _TmTxn) -> None:
        """All voted YES under 3PC: log the barrier and fan out PRE-COMMIT."""
        tr = self.tr
        t.precommitted = True
        if t.timeout_event is not None:
            t.timeout_event.cancel()
            t.timeout_event = None
        self.wal.append(REC_TM_PRECOMMIT, t.txn_id, tr.now)
        obs = self.owner.obs
        if obs is not None:
            obs.on_txn_phase(
                t.txn_id, "precommit", tr.now, node=self.node_id,
                participants=len(t.participants),
            )
        self._send_precommits(t)
        t.retry_event = tr.set_timer(
            self.owner.config.retry_interval, self._retry_precommit, t.txn_id
        )
        t.timeout_event = tr.set_timer(
            self.owner.config.prepare_timeout, self._on_precommit_timeout, t.txn_id
        )

    def _send_precommits(self, t: _TmTxn) -> None:
        owner = self.owner
        nbytes = owner.store.sizes.digest
        send = self.tr.send
        on = owner.participants
        for r in t.participants:
            if r in t.precommit_acks:
                continue
            owner.txn_msgs += 1
            owner.txn_msg_bytes += nbytes
            send(self.node_id, r, nbytes, on[r].on_precommit, t.txn_id, self.node_id)

    def _retry_precommit(self, txn_id: int) -> None:
        t = self._active.get(txn_id)
        if t is None or not t.precommitted or t.decision is not None:
            return
        if self.node.up:
            self._send_precommits(t)
        t.retry_event = self.tr.set_timer(
            self.owner.config.retry_interval, self._retry_precommit, txn_id
        )

    def _on_precommit_timeout(self, txn_id: int) -> None:
        """Ack window closed with a participant missing: commit anyway.

        A logged ``tm-precommit`` means the round can never abort, so a
        crashed participant cannot change the outcome -- it learns COMMIT
        from its decision query on recovery. Deciding now unblocks every
        live pre-committed participant instead of holding their locks for
        the straggler's whole downtime.
        """
        t = self._active.get(txn_id)
        if t is None or not t.precommitted or t.decision is not None:
            return
        if not self.node.up:
            return
        if t.retry_event is not None:
            t.retry_event.cancel()
            t.retry_event = None
        self._decide(t, commit=True)

    def on_precommit_ack(self, txn_id: int, node_id: int) -> None:
        """A participant acknowledged the 3PC pre-commit."""
        if not self.node.up:
            return
        t = self._active.get(txn_id)
        if t is None or not t.precommitted or t.decision is not None:
            return
        t.precommit_acks.add(node_id)
        if len(t.precommit_acks) == len(t.participants):
            if t.retry_event is not None:
                t.retry_event.cancel()
                t.retry_event = None
            self._decide(t, commit=True)

    # -- the decision point -------------------------------------------------------

    def _decide(self, t: _TmTxn, commit: bool, reason: Optional[str] = None) -> None:
        """The decision point: force-log, answer the client, fan out."""
        tr = self.tr
        t.decision = "commit" if commit else "abort"
        if t.timeout_event is not None:
            t.timeout_event.cancel()
            t.timeout_event = None
        self.wal.append(
            REC_TM_COMMIT if commit else REC_TM_ABORT, t.txn_id, tr.now
        )
        if commit:
            self.commits_decided += 1
            oracle = self.owner.store.oracle
            self.owner.grade_commit(t.txn_id, t.writes_by_key)
            for key in sorted(t.writes_by_key):
                version = t.writes_by_key[key]
                oracle.note_write_start(
                    key, version, n_replicas=self._replica_count(key)
                )
                oracle.note_write_acked(key, version)
        else:
            self.aborts_decided += 1
        obs = self.owner.obs
        if obs is not None:
            obs.on_txn_phase(
                t.txn_id,
                "decide",
                tr.now,
                node=self.node_id,
                outcome=t.decision,
                reason=reason,
            )
        self.owner.txn_decided(t.txn_id, commit, reason)
        self._send_decisions(t)
        t.retry_event = tr.set_timer(
            self.owner.config.retry_interval, self._retry_decision, t.txn_id
        )

    def _replica_count(self, key: str) -> int:
        st = self.owner.store
        return len(st.replica_sets(key)[0])

    def _send_decisions(self, t: _TmTxn) -> None:
        owner = self.owner
        nbytes = owner.store.sizes.digest
        send = self.tr.send
        on = owner.participants
        commit = t.decision == "commit"
        for r in t.participants:
            if r in t.acks:
                continue
            owner.txn_msgs += 1
            owner.txn_msg_bytes += nbytes
            send(
                self.node_id, r, nbytes, on[r].on_decision,
                t.txn_id, self.node_id, commit,
            )

    def _retry_decision(self, txn_id: int) -> None:
        t = self._active.get(txn_id)
        if t is None or t.decision is None:
            return
        if self.node.up:
            self._send_decisions(t)
        t.retry_event = self.tr.set_timer(
            self.owner.config.retry_interval, self._retry_decision, txn_id
        )

    def on_ack(self, txn_id: int, node_id: int) -> None:
        """A participant acknowledged the decision."""
        if not self.node.up:
            return
        t = self._active.get(txn_id)
        if t is None or t.decision is None:
            return
        t.acks.add(node_id)
        if len(t.acks) == len(t.participants):
            if t.retry_event is not None:
                t.retry_event.cancel()
            now = self.tr.now
            self.wal.append(REC_TM_END, txn_id, now)
            del self._active[txn_id]
            obs = self.owner.obs
            if obs is not None:
                obs.on_txn_phase(txn_id, "end", now, node=self.node_id)

    # -- in-doubt resolution ------------------------------------------------------

    def on_status_query(self, txn_id: int, from_node: int) -> None:
        """A prepared participant asks for the verdict (presumed abort)."""
        if not self.node.up:
            return
        st = self.owner.store
        decision = self.wal.tm_decision(txn_id)
        if decision is None:
            if txn_id in self._active:
                # Still collecting votes or pre-commit acks: answer with an
                # explicit proof of life so the poller resets its backoff
                # and never starts the termination protocol against a live
                # TM.
                self.owner.send(
                    self.node_id,
                    from_node,
                    st.sizes.ack,
                    self.owner.participants[from_node].on_tm_working,
                    txn_id,
                )
                return
            decision = "abort"  # no knowledge of the transaction: abort
        self.owner.send(
            self.node_id,
            from_node,
            st.sizes.digest,
            self.owner.participants[from_node].on_decision,
            txn_id,
            self.node_id,
            decision == "commit",
        )

    # -- crash / recovery ---------------------------------------------------------

    def on_crash(self) -> None:
        """Volatile state is lost; undecided rounds will presumed-abort."""
        for t in self._active.values():
            if t.timeout_event is not None:
                t.timeout_event.cancel()
            if t.retry_event is not None:
                t.retry_event.cancel()
        self._active.clear()

    def on_recover(self) -> None:
        """Resume every unfinished WAL round until ``tm-end`` is durable."""
        tr = self.tr
        for rec in self.wal.tm_unfinished():
            txn_id = rec.txn_id
            if txn_id in self._active:
                continue  # pragma: no cover - active implies pre-crash state
            decision = self.wal.tm_decision(txn_id)
            participants = [int(p) for p in rec.data["participants"]]
            t = _TmTxn(txn_id, participants)
            if decision is None and self.wal.tm_precommitted(txn_id):
                # 3PC: the pre-commit barrier was logged, so the round can
                # never abort -- re-drive the barrier forward: resend
                # PRE-COMMIT, collect a fresh ack set (already-decided or
                # already-pre-committed participants re-ack immediately),
                # then commit.
                t.precommitted = True
                self.recovery_resolved += 1
                obs = self.owner.obs
                if obs is not None:
                    obs.on_txn_phase(
                        txn_id, "recover", tr.now, node=self.node_id,
                        outcome="precommit",
                    )
                self._active[txn_id] = t
                self._send_precommits(t)
                t.retry_event = tr.set_timer(
                    self.owner.config.retry_interval, self._retry_precommit, txn_id
                )
                t.timeout_event = tr.set_timer(
                    self.owner.config.prepare_timeout,
                    self._on_precommit_timeout,
                    txn_id,
                )
                continue
            if decision is None:
                # Crashed before deciding: no participant can hold a commit,
                # so the round resolves to abort (the presumed-abort rule).
                self.wal.append(REC_TM_ABORT, txn_id, tr.now)
                self.aborts_decided += 1
                self.owner.txn_decided(txn_id, False, "tm-crash")
                t.decision = "abort"
            else:
                t.decision = decision
            self.recovery_resolved += 1
            obs = self.owner.obs
            if obs is not None:
                obs.on_txn_phase(
                    txn_id, "recover", tr.now, node=self.node_id, outcome=t.decision
                )
            # Ack collection resumes from zero -- the pre-crash ack set was
            # volatile -- and runs until every participant (re-)acks and
            # ``tm-end`` finally lands in the log.
            self._active[txn_id] = t
            self._send_decisions(t)
            t.retry_event = tr.set_timer(
                self.owner.config.retry_interval, self._retry_decision, txn_id
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransactionManager(node={self.node_id}, active={len(self._active)}, "
            f"commits={self.commits_decided}, aborts={self.aborts_decided})"
        )
