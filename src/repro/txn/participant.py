"""The replica-side state machines of the atomic-commit protocols.

One :class:`TxnParticipant` per storage node. The participant's job per
transaction:

``PREPARE`` -- decide a vote. YES requires (a) every written key free of a
conflicting prepare lock and (b), when commit-time validation is on, the
local replica's version of every written-and-read key no newer than the
version the transaction read (optimistic concurrency control graded
against *this replica's* state -- a stale replica can wave a doomed
transaction through, which is exactly how stale reads leak into abort and
anomaly rates). A YES vote force-logs the buffered writes -- and the
co-participant list, which the termination protocol needs -- to the WAL
and takes per-key locks; a NO vote logs nothing (presumed abort).

``PRE-COMMIT`` (3PC only) -- every participant voted YES; log the fact and
acknowledge. A pre-committed participant knows commit is inevitable
unless the whole round dies, which is what makes 3PC non-blocking under
a coordinator crash.

``COMMIT``/``ABORT`` -- log the decision, apply (last-write-wins) or
discard the buffered writes, release locks, acknowledge the TM.

**In-doubt polling** -- while prepared-without-decision the participant
polls the TM for the verdict on a deterministic exponential-backoff
schedule with derived jitter (:meth:`~repro.txn.api.TxnConfig.poll_delay`),
so crash storms don't synchronize status-query bursts. A live TM always
answers (verdict or "working"), and a "working" reply resets the backoff.

**Cooperative termination** (``2pc-coop`` and ``3pc``) -- when
``termination_after`` consecutive polls go unanswered, the participant
queries its co-participants. A peer holding a commit/abort record answers
authoritatively; an unprepared peer logs an abort *pledge* (it can never
vote YES afterwards) and answers abort; a pre-committed peer answers
pre-commit (drive to commit). When every peer answers "uncertain" -- or
the round's reply window times out with peers silent (dead peers never
reply; a dead peer holding a decision record would imply the fan-out
already reached this live node) -- the round aborts unilaterally *if this
participant has been continuously up since it voted*: under the
fail-stop model a silent TM is a dead TM, and a dead TM that never
logged a decision can only presumed-abort on recovery -- so abort is the
unique safe outcome. A participant that crashed after voting loses that
inference (the COMMIT fan-out may have been dropped at it while down and
acked by peers that later died), so after recovery it never aborts
unilaterally: it stays blocked, polling TM and peers, until an
authoritative commit/abort/pre-commit/pledge answer arrives -- the
classical blocking case of termination protocols.
(Partitions can violate the fail-stop assumption too; that is the
classical limit of termination protocols and of 3PC itself, see
docs/ARCHITECTURE.md.)

**Crash/recovery** -- a crash wipes the lock table and the prepared-state
mirror, and with it the poll timers and the termination bookkeeping; only
the WAL survives. Recovery rebuilds prepared state (including pre-commit
status and the co-participant list) from in-doubt ``prepare`` records in
LSN order and asks each transaction's TM for the verdict.

**State** -- everything volatile this role knows about one transaction is
one :class:`_Prepared` record: the buffered writes, the poll timer and
backoff position, the open termination round. It is created at prepare
(or recovery) and dropped at the decision (or a crash); the timers carry
the record itself, so one that outlives its entry finds
``prepared.get(txn_id) is not p`` and does nothing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, TYPE_CHECKING

from repro.cluster.versions import Version
from repro.txn.wal import (
    REC_ABORT,
    REC_COMMIT,
    REC_PRECOMMIT,
    REC_PREPARE,
    WriteAheadLog,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.txn.api import TransactionalStore

__all__ = ["TxnParticipant"]


class _Prepared:
    """Volatile mirror of one in-doubt transaction (rebuilt from WAL)."""

    __slots__ = (
        "txn_id",
        "tm_node",
        "writes",
        "co_participants",
        "precommitted",
        "recovered",
        "t_registered",
        "poll_event",
        "poll_attempts",
        "term_uncertain",
        "term_round",
    )

    def __init__(
        self,
        txn_id: int,
        tm_node: int,
        writes: Dict[str, Version],
        co_participants: List[int],
        precommitted: bool = False,
        recovered: bool = False,
        t_registered: float = 0.0,
    ):
        self.txn_id = txn_id
        self.tm_node = tm_node
        self.writes = writes
        self.co_participants = co_participants
        self.precommitted = precommitted
        #: True once this entry has been rebuilt from the WAL after a
        #: crash: the node was NOT continuously up since voting YES, so
        #: it may have missed a decision fan-out entirely -- which
        #: forfeits the TM-silence inference (see ``_unilateral_abort``).
        self.recovered = recovered
        #: When this live stretch of in-doubt dwell started: the prepare
        #: instant, or the recovery instant after a crash (downtime is
        #: dead, not blocked -- same rule as the in-doubt-dwell oracle).
        self.t_registered = t_registered
        #: The pending status-poll timer.
        self.poll_event: Any = None
        #: Unanswered status polls since the last sign of TM life.
        self.poll_attempts = 0
        #: Peers that answered "uncertain" in the open termination round;
        #: ``None`` while no round is open. Any sign of TM life closes the
        #: round, which also voids its reply-window timer.
        self.term_uncertain: Optional[Set[int]] = None
        #: Rounds opened so far -- the open round's token. It only grows:
        #: were it reset with the round, a later round would reuse a token
        #: and an earlier round's timer, still pending, could conclude it.
        self.term_round = 0


class TxnParticipant:
    """Per-node prepare/pre-commit/commit state machine."""

    def __init__(self, owner: "TransactionalStore", node_id: int, wal: WriteAheadLog):
        self.owner = owner
        self.node_id = int(node_id)
        self.wal = wal
        #: This role's storage node and the deployment's transport, bound
        #: once: neither is ever replaced for a node id.
        self.node = owner.store.nodes[self.node_id]
        self.tr = owner.store.transport
        #: key -> txn_id holding the prepare lock.
        self.locks: Dict[str, int] = {}
        #: txn_id -> prepared state awaiting a decision.
        self.prepared: Dict[int, _Prepared] = {}
        # counters (never reset by a crash -- they are measurement surfaces)
        self.prepares_seen = 0
        self.votes_yes = 0
        self.votes_no = 0
        self.commits_applied = 0
        self.aborts_applied = 0
        self.in_doubt_recovered = 0
        #: in-doubt entries resolved by the termination protocol (peer
        #: verdicts, pledges driving rounds dry, and unilateral aborts).
        self.termination_resolved = 0
        #: total prepared-without-decision dwell accrued here while the
        #: node was *up* (crash downtime is dead, not blocked -- the same
        #: semantics as the in-doubt-dwell oracle's recovery-restart rule).
        self.blocked_time = 0.0

    # -- message handlers ---------------------------------------------------------

    def on_prepare(
        self,
        txn_id: int,
        tm_node: int,
        writes: Dict[str, Version],
        read_versions: Dict[str, Optional[Version]],
        co_participants: Any = (),
    ) -> None:
        """PREPARE from the TM: vote, and on YES make the writes durable."""
        if not self.node.up:
            return  # message lost at a dead node; the TM's timeout handles it
        self.prepares_seen += 1
        if txn_id in self.prepared:
            self._reply(tm_node, "on_vote", txn_id, True)  # duplicate (TM retry)
            return
        if self.wal.decision_for(txn_id) is not None:
            # Already decided here -- or abort-pledged to a termination
            # query, in which case voting YES now would break the pledge.
            return
        vote = self._evaluate(txn_id, writes, read_versions)
        if vote:
            self.votes_yes += 1
            now = self.tr.now
            # The TM's own write map and participant list, kept as sent:
            # nothing mutates them after the send.
            self.wal.append(
                REC_PREPARE, txn_id, now,
                tm_node=tm_node, writes=writes, co=co_participants,
            )
            for key in writes:
                self.locks[key] = txn_id
            self.prepared[txn_id] = p = _Prepared(
                txn_id, tm_node, writes, co_participants, t_registered=now
            )
            self._schedule_poll(p)
            obs = self.owner.obs
            if obs is not None:
                obs.on_txn_prepared(self.node_id, txn_id, now)
        else:
            self.votes_no += 1
        self._reply(tm_node, "on_vote", txn_id, vote)

    def _evaluate(
        self,
        txn_id: int,
        writes: Dict[str, Version],
        read_versions: Dict[str, Optional[Version]],
    ) -> bool:
        """The YES/NO decision: lock conflicts, then read validation."""
        for key in writes:
            holder = self.locks.get(key)
            if holder is not None and holder != txn_id:
                return False
        node = self.node
        for key in sorted(read_versions):
            seen = read_versions[key]
            local = node.data.get(key)
            if local is None:
                continue
            if seen is None or local.newer_than(seen):
                # The local replica holds a version the transaction never
                # read: someone committed underneath it.
                return False
        return True

    def on_precommit(self, txn_id: int, tm_node: int) -> None:
        """PRE-COMMIT from a 3PC TM: log it and acknowledge."""
        if not self.node.up:
            return  # lost; the TM re-sends until acknowledged
        p = self.prepared.get(txn_id)
        if p is None:
            # Already resolved here (or never prepared); ack so a
            # recovering TM can close its pre-commit barrier and move on.
            self._reply(tm_node, "on_precommit_ack", txn_id)
            return
        if not p.precommitted:
            p.precommitted = True
            self.wal.append(REC_PRECOMMIT, txn_id, self.tr.now)
        # A pre-commit is proof of TM life: restart the backoff schedule.
        p.poll_attempts = 0
        p.term_uncertain = None
        self._reply(tm_node, "on_precommit_ack", txn_id)

    def on_decision(self, txn_id: int, tm_node: int, commit: bool) -> None:
        """COMMIT/ABORT from the TM (possibly a retry or a recovery reply)."""
        if not self.node.up:
            return  # lost; the TM keeps retrying until acknowledged
        p = self.prepared.get(txn_id)
        if p is None:
            # Never prepared here (presumed abort: nothing to undo) or
            # already decided (duplicate retry). Ack so the TM stops.
            self._reply(tm_node, "on_ack", txn_id)
            return
        self._resolve(p, commit)
        self._reply(tm_node, "on_ack", txn_id)

    def _resolve(self, p: _Prepared, commit: bool) -> None:
        """Log the verdict, apply or discard, release, account the dwell."""
        now = self.tr.now
        self.wal.append(REC_COMMIT if commit else REC_ABORT, p.txn_id, now)
        if commit:
            self._apply(p)
            self.commits_applied += 1
        else:
            self.aborts_applied += 1
        self.blocked_time += now - p.t_registered
        for key in p.writes:
            if self.locks.get(key) == p.txn_id:
                del self.locks[key]
        if p.poll_event is not None:
            p.poll_event.cancel()
        del self.prepared[p.txn_id]
        obs = self.owner.obs
        if obs is not None:
            obs.on_txn_doubt_resolved(self.node_id, p.txn_id, now)

    def _apply(self, p: _Prepared) -> None:
        """Install the prepared writes (last-write-wins, oracle-visible)."""
        node = self.node
        now = self.tr.now
        oracle = self.owner.store.oracle
        for key in sorted(p.writes):
            version = p.writes[key]
            current = node.data.get(key)
            if current is None or version.newer_than(current):
                node.data[key] = version
            node.writes_applied += 1
            oracle.note_replica_applied(version, now)

    # -- crash / recovery ---------------------------------------------------------

    def on_crash(self) -> None:
        """Volatile state is lost; the WAL is all that survives."""
        # Close out the live in-doubt dwell of every prepared entry: the
        # node is dead from here until recovery, and dead is not blocked.
        now = self.tr.now
        for p in self.prepared.values():
            self.blocked_time += now - p.t_registered
            if p.poll_event is not None:
                p.poll_event.cancel()
        self.locks.clear()
        self.prepared.clear()

    def on_recover(self) -> None:
        """Rebuild prepared state from the WAL and chase down decisions."""
        for txn_id in self.wal.in_doubt():
            rec = self.wal.prepare_record(txn_id)
            if rec is None:  # pragma: no cover - in_doubt implies a record
                continue
            p = _Prepared(
                txn_id,
                int(rec.data["tm_node"]),
                dict(rec.data["writes"]),
                [int(c) for c in rec.data.get("co", ())],
                precommitted=self.wal.precommitted(txn_id),
                # Rebuilt from the WAL = not continuously up since voting:
                # a decision fan-out may have been dropped at this node
                # while it was down, so the TM-silence inference is off
                # the table for this entry forever (sticky across any
                # number of further crashes -- every rebuild re-sets it).
                recovered=True,
                t_registered=self.tr.now,
            )
            self.prepared[txn_id] = p
            for key in p.writes:
                self.locks[key] = txn_id
            self.in_doubt_recovered += 1
            obs = self.owner.obs
            if obs is not None:
                # Re-register at the recovery instant: the node was dead,
                # not blocked, while down -- the dwell oracle's clock
                # measures how long a *live* participant stays stuck.
                # ``restart=True`` overwrites the pre-crash start time even
                # when the crash+recovery fell between two sampler ticks.
                obs.on_txn_prepared(self.node_id, txn_id, self.tr.now, restart=True)
            self._query_status(p)
            self._schedule_poll(p)

    # -- in-doubt polling (deterministic backoff) ---------------------------------

    def _schedule_poll(self, p: _Prepared) -> None:
        delay = self.owner.config.poll_delay(
            self.owner.store.config.seed, self.node_id, p.txn_id, p.poll_attempts
        )
        p.poll_event = self.tr.set_timer(delay, self._poll, p)

    def _poll(self, p: _Prepared) -> None:
        p.poll_event = None
        if self.prepared.get(p.txn_id) is not p or not self.node.up:
            return
        p.poll_attempts += 1
        self._query_status(p)
        cfg = self.owner.config
        if (
            cfg.commit_protocol in ("2pc-coop", "3pc")
            and p.poll_attempts >= cfg.termination_after
        ):
            self._terminate(p)
            if self.prepared.get(p.txn_id) is not p:
                return  # termination resolved it (self-commit or abort)
        self._schedule_poll(p)

    def _query_status(self, p: _Prepared) -> None:
        """Ask the transaction's TM for the verdict (presumed-abort reply)."""
        self.owner.send(
            self.node_id,
            p.tm_node,
            self.owner.store.sizes.digest,
            self.owner.tms[p.tm_node].on_status_query,
            p.txn_id,
            self.node_id,
        )

    def on_tm_working(self, txn_id: int) -> None:
        """The TM answered "still deciding": proof of life, reset backoff."""
        p = self.prepared.get(txn_id)
        if p is None or not self.node.up:
            return
        p.poll_attempts = 0
        p.term_uncertain = None

    # -- cooperative termination --------------------------------------------------

    def _terminate(self, p: _Prepared) -> None:
        """One termination round: ask every co-participant for the verdict."""
        txn_id = p.txn_id
        if self.owner.config.commit_protocol == "3pc" and p.precommitted:
            # Pre-commit is proof every participant voted YES and the TM
            # passed its commit point barrier's threshold; after sustained
            # TM silence the round drives itself to commit (the 3PC
            # non-blocking rule under a single coordinator failure).
            self.termination_resolved += 1
            self._resolve(p, commit=True)
            self._reply(p.tm_node, "on_ack", txn_id)
            return
        peers = [c for c in p.co_participants if c != self.node_id]
        if not peers:
            # Sole participant: the sustained poll silence that brought us
            # here is itself the evidence -- a live TM always answers, and
            # a dead TM that never logged a decision presumes abort. (If
            # this entry was rebuilt after a crash the TM may well have
            # logged a commit we never saw; ``_unilateral_abort`` keeps a
            # recovered entry blocked.)
            self._unilateral_abort(p)
            return
        p.term_round += 1
        p.term_uncertain = set()
        st = self.owner.store
        for peer in peers:
            self.owner.send(
                self.node_id,
                peer,
                st.sizes.digest,
                self.owner.participants[peer].on_termination_query,
                txn_id,
                self.node_id,
            )
        # Backstop for dead peers (which never reply): conclude the round
        # after a full timeout, counting non-repliers as uncertain. For a
        # participant continuously up since its vote this is safe under
        # fail-stop with atomic log+fan-out events: a dead peer that held
        # a commit (or pre-commit) record implies the TM's fan-out was
        # already sent, hence delivered to this live node -- contradiction
        # with still being prepared (resp. not pre-committed) here. A
        # *recovered* participant gets no such contradiction (it may have
        # been down for the fan-out), so ``_unilateral_abort`` keeps it
        # blocked instead.
        cfg = self.owner.config
        window = (
            cfg.termination_timeout
            if cfg.termination_timeout is not None
            else cfg.prepare_timeout
        )
        self.tr.set_timer(window, self._termination_timeout, p, p.term_round)

    def _termination_timeout(self, p: _Prepared, token: int) -> None:
        """The round's reply window closed: missing peers count uncertain."""
        if (
            self.prepared.get(p.txn_id) is not p
            or p.term_uncertain is None
            or p.term_round != token
            or not self.node.up
        ):
            return  # resolved, closed by a sign of TM life, or superseded
        self._unilateral_abort(p)

    def _unilateral_abort(self, p: _Prepared) -> None:
        """Every reachable party is uncertain and the TM is silent: abort.

        Sound only for a participant **continuously up since it voted**:
        for such a node, TM silence plus all-uncertain/silent peers really
        does prove no decision was ever fanned out (a commit fan-out would
        have reached this live node). A *recovered* participant has no
        such proof -- ``on_decision`` drops messages at a down node, so
        the TM may have durably committed, delivered COMMIT to peers that
        applied it and later died, and then died itself. Aborting here
        would diverge from those committed replicas. Classical cooperative
        termination **blocks** in that case, and so do we: the entry stays
        prepared and keeps polling until the TM or a peer answers
        authoritatively (TM recovery replay, a peer's WAL verdict, a
        pre-commit, or an abort pledge).
        """
        if p.recovered:
            return
        self.termination_resolved += 1
        self._resolve(p, commit=False)
        self._reply(p.tm_node, "on_ack", p.txn_id)

    def on_termination_query(self, txn_id: int, from_node: int) -> None:
        """A blocked co-participant asks what this node knows."""
        if not self.node.up:
            return
        decision = self.wal.decision_for(txn_id)
        if decision is None:
            p = self.prepared.get(txn_id)
            if p is not None:
                verdict = "precommit" if p.precommitted else "uncertain"
            elif self.wal.prepare_record(txn_id) is not None:
                # Prepared in the WAL but not in memory: this node is down
                # in all reachable cases, so we cannot be here -- kept for
                # safety as "uncertain".
                verdict = "uncertain"  # pragma: no cover
            else:
                # Never voted YES (and, having pledged, never will): the TM
                # cannot have decided commit without this vote, so abort is
                # authoritative. The pledge is the logged abort record.
                self.wal.append(REC_ABORT, txn_id, self.tr.now, pledge=True)
                verdict = "abort"
        else:
            verdict = decision
        st = self.owner.store
        self.owner.send(
            self.node_id,
            from_node,
            st.sizes.digest,
            self.owner.participants[from_node].on_termination_reply,
            txn_id,
            self.node_id,
            verdict,
        )

    def on_termination_reply(self, txn_id: int, from_node: int, verdict: str) -> None:
        """A co-participant's answer to this node's termination query."""
        if not self.node.up:
            return
        p = self.prepared.get(txn_id)
        if p is None:
            return  # resolved meanwhile (TM retry or an earlier reply)
        if verdict == "commit" or (
            verdict == "precommit" and self.owner.config.commit_protocol == "3pc"
        ):
            self.termination_resolved += 1
            self._resolve(p, commit=True)
            self._reply(p.tm_node, "on_ack", txn_id)
            return
        if verdict == "abort":
            self.termination_resolved += 1
            self._resolve(p, commit=False)
            self._reply(p.tm_node, "on_ack", txn_id)
            return
        # "uncertain" (or a precommit report under plain 2pc-coop, where it
        # cannot occur): when every peer of the round is uncertain and the
        # TM has been silent the whole backoff window, the fail-stop model
        # says the TM is dead and undecided -- its own recovery would
        # presume abort, so aborting now is the unique consistent outcome
        # for a participant continuously up since its vote (a recovered
        # one stays blocked; see ``_unilateral_abort``).
        pending = p.term_uncertain
        if pending is None:
            return  # a stale reply to a round closed by a sign of TM life
        pending.add(from_node)
        peers = {c for c in p.co_participants if c != self.node_id}
        if peers and pending >= peers:
            self._unilateral_abort(p)

    # -- outbound messages --------------------------------------------------------

    def _reply(self, tm_node: int, handler: str, txn_id: int, *args: Any) -> None:
        """Send a vote or an ack to ``handler`` of the transaction's TM.

        These replies are most of a commit round's messages, so this does
        ``TransactionalStore.send``'s accounting itself and hands the
        message straight to the transport.
        """
        owner = self.owner
        nbytes = owner.store.sizes.ack
        owner.txn_msgs += 1
        owner.txn_msg_bytes += nbytes
        self.tr.send(
            self.node_id, tm_node, nbytes, getattr(owner.tms[tm_node], handler),
            txn_id, self.node_id, *args,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TxnParticipant(node={self.node_id}, prepared={len(self.prepared)}, "
            f"yes={self.votes_yes}, no={self.votes_no})"
        )
