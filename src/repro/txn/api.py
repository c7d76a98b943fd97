"""The transactional client facade: ``begin / read / write / commit``.

:class:`TransactionalStore` wraps a :class:`~repro.cluster.store.ReplicatedStore`
with per-node write-ahead logs, participants and transaction managers, and
exposes the client API:

    txn = tstore.begin()
    txn.read("user1", on_read)        # routed through the active policy
    txn.write("user1", value_size)    # buffered until commit
    txn.commit(on_outcome)            # presumed-abort 2PC

Transactional **reads go through the store's normal read path at whatever
level the active consistency policy (Harmony/Bismar/static) dials** -- that
is the experiment: the policy's stale-read probability feeds directly into
commit-time validation failures (aborts) and, when validation is off,
into lost-update anomalies, which the store grades via the oracle.

Writes are buffered client-side: no replica applies anything before the
TM's logged decision, and a crashed participant re-drives its prepared
writes from the WAL, so the **settled state is always all-or-nothing** --
a partial transaction can never persist. (During the commit fan-out
itself replicas apply as the decision reaches them, so a concurrent weak
read may see the new versions arrive key by key -- the same propagation
window every write has in an eventually-consistent store, and exactly
what the staleness metrics measure.)

The store registers for node crash/recovery events, wiping volatile 2PC
state on crash and running the WAL recovery passes on recovery, so
:class:`~repro.cluster.failures.FailureInjector` scripts exercise the full
in-doubt machinery.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.common.errors import ConfigError, SimulationError
from repro.common.stats import Histogram
from repro.cluster.coordinator import OpResult
from repro.cluster.store import ReplicatedStore
from repro.cluster.versions import NONE_VERSION, Version
from repro.runtime.deadlines import DeadlineQueue
from repro.txn.participant import TxnParticipant
from repro.txn.tm import TransactionManager
from repro.txn.wal import WriteAheadLog

__all__ = [
    "PROTOCOLS",
    "TxnConfig",
    "TxnOutcome",
    "Transaction",
    "TransactionalStore",
]

#: The commit protocols the transaction subsystem implements.
#:
#: ``2pc``
#:     Classic presumed-abort two-phase commit. Prepared participants
#:     poll only the TM for the verdict: a crashed coordinator blocks
#:     them until it recovers -- the textbook 2PC blocking window.
#: ``2pc-coop``
#:     2PC plus the cooperative termination protocol: a prepared
#:     participant whose TM polls go unanswered queries its
#:     co-participants, any of whom holding a commit/abort record
#:     answers authoritatively, so blocked time no longer depends on TM
#:     recovery (fail-stop model).
#: ``3pc``
#:     Three-phase commit with a pre-commit phase between vote
#:     collection and the commit point; non-blocking under a single
#:     coordinator failure (fail-stop, no partitions -- the classical
#:     3PC guarantee).
PROTOCOLS = ("2pc", "2pc-coop", "3pc")

#: Fractional jitter on each status-poll delay, derived from ``(seed, node,
#: txn, attempt)``: crash storms stop synchronizing status-query bursts
#: while runs stay byte-identical for a fixed seed.
STATUS_JITTER = 0.25


@dataclass
class TxnConfig:
    """Transaction-subsystem tunables.

    Attributes
    ----------
    prepare_timeout:
        TM-side vote-collection timeout (seconds); expiry aborts the round.
    client_timeout:
        Client-side outcome timeout; expiry reports the transaction as
        in-doubt to the caller (recovery may still commit it later --
        exactly the 2PC blocking window, surfaced honestly).
    retry_interval:
        TM decision re-send period until all participants acknowledge.
    status_interval:
        Base delay before a prepared participant's *first* status poll;
        subsequent polls back off exponentially (below).
    status_backoff:
        Multiplier applied to the poll delay after every unanswered
        attempt (>= 1.0; 1.0 restores the legacy fixed interval).
    status_interval_max:
        Cap on the backed-off poll delay, so a long-dead TM is still
        probed at a bounded period.
    termination_after:
        Unanswered TM polls before a ``2pc-coop``/``3pc`` participant
        starts querying its co-participants (cooperative termination).
    termination_timeout:
        Reply window of one termination round; when it closes, peers
        that never answered (dead, under fail-stop) count as uncertain
        and the round concludes. ``None`` reuses ``prepare_timeout``.
    commit_protocol:
        One of :data:`PROTOCOLS`; selects the atomic-commit state
        machines every TM and participant of this store run.
    validate_reads:
        Commit-time optimistic validation of read-then-written keys
        against each replica's local state. Off = eventual-style blind
        commits (lost updates become observable).
    """

    prepare_timeout: float = 5.0
    client_timeout: float = 10.0
    retry_interval: float = 0.5
    status_interval: float = 0.5
    status_backoff: float = 2.0
    status_interval_max: float = 5.0
    termination_after: int = 2
    termination_timeout: Optional[float] = None
    commit_protocol: str = "2pc"
    validate_reads: bool = True

    def __post_init__(self) -> None:
        for name in (
            "prepare_timeout",
            "client_timeout",
            "retry_interval",
            "status_interval",
            "status_interval_max",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.status_backoff < 1.0:
            raise ConfigError(
                f"status_backoff must be >= 1.0, got {self.status_backoff}"
            )
        if self.termination_after < 1:
            raise ConfigError(
                f"termination_after must be >= 1, got {self.termination_after}"
            )
        if self.termination_timeout is not None and self.termination_timeout <= 0:
            raise ConfigError(
                f"termination_timeout must be positive, got "
                f"{self.termination_timeout}"
            )
        if self.commit_protocol not in PROTOCOLS:
            raise ConfigError(
                f"unknown commit_protocol {self.commit_protocol!r}; "
                f"choose from {', '.join(PROTOCOLS)}"
            )

    def poll_delay(self, seed: int, node_id: int, txn_id: int, attempt: int) -> float:
        """The ``attempt``-th status-poll delay for one prepared transaction.

        Deterministic exponential backoff with derived jitter: the base
        delay doubles (``status_backoff``) per attempt up to
        ``status_interval_max``, and the ``STATUS_JITTER`` fraction comes
        from a CRC32 hash of the ``(seed, node, txn, attempt)`` identity -- the
        same derivation style as :class:`~repro.common.rng.RngFactory`
        stream names, so no shared RNG state is consumed and event order
        is a pure function of the seed.
        """
        base = min(
            self.status_interval * self.status_backoff ** attempt,
            self.status_interval_max,
        )
        tag = f"txnpoll.{seed}.{node_id}.{txn_id}.{attempt}".encode()
        frac = zlib.crc32(tag) / 2**32
        return base * (1.0 + STATUS_JITTER * frac)


class TxnOutcome:
    """What the client learns about one transaction."""

    __slots__ = (
        "txn_id",
        "status",
        "reason",
        "t_begin",
        "t_commit",
        "t_end",
        "n_reads",
        "n_writes",
        "stale_reads",
    )

    def __init__(self, txn_id: int, status: str, reason: Optional[str], txn: "Transaction", t_end: float):
        self.txn_id = txn_id
        self.status = status  # "committed" | "aborted" | "in-doubt"
        self.reason = reason
        self.t_begin = txn.t_begin
        self.t_commit = txn.t_commit
        self.t_end = t_end
        self.n_reads = txn.n_reads
        self.n_writes = len(txn.writes)
        self.stale_reads = txn.stale_reads

    @property
    def commit_latency(self) -> float:
        """Seconds from the commit request to the client-visible outcome."""
        return self.t_end - self.t_commit

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f"({self.reason})" if self.reason else ""
        return f"TxnOutcome(#{self.txn_id} {self.status}{tag}, {self.commit_latency * 1e3:.2f}ms)"


class Transaction:
    """One client transaction handle (single use)."""

    __slots__ = (
        "owner",
        "txn_id",
        "coordinator",
        "read_versions",
        "stale_keys",
        "writes",
        "t_begin",
        "t_commit",
        "pending_reads",
        "commit_requested",
        "state",
        "delivered",
        "done",
        "read_failed",
        "stale_reads",
        "n_reads",
    )

    def __init__(self, owner: "TransactionalStore", txn_id: int, coordinator: Optional[int]):
        self.owner = owner
        self.txn_id = txn_id
        self.coordinator = coordinator
        self.read_versions: Dict[str, Version] = {}
        self.stale_keys: set = set()
        self.writes: Dict[str, int] = {}
        self.t_begin = owner.transport.now
        self.t_commit = self.t_begin
        self.pending_reads = 0
        self.commit_requested = False
        self.state = "active"
        self.delivered = False
        self.done: Optional[Callable[[TxnOutcome], Any]] = None
        self.read_failed = False
        self.stale_reads = 0
        self.n_reads = 0

    # -- operations ---------------------------------------------------------------

    def read(self, key: str, done: Optional[Callable[[OpResult], Any]] = None) -> None:
        """Read ``key`` at the active policy's level, recording the version."""
        if self.state != "active":
            raise SimulationError(f"read on a {self.state} transaction")
        self.pending_reads += 1
        self.n_reads += 1

        def _done(result: OpResult) -> None:
            self.pending_reads -= 1
            if result.ok:
                self.read_versions[key] = (
                    result.version if result.version is not None else NONE_VERSION
                )
                if result.stale:
                    self.stale_reads += 1
                    self.stale_keys.add(key)
            else:
                self.read_failed = True
            if done is not None:
                done(result)
            if self.commit_requested and self.pending_reads == 0:
                self.owner._start_commit(self)

        self.owner.store.read(
            key, self.owner.read_level(), _done, coordinator=self.coordinator
        )

    def write(self, key: str, value_size: Optional[int] = None) -> None:
        """Buffer a write; nothing reaches any replica before commit."""
        if self.state != "active":
            raise SimulationError(f"write on a {self.state} transaction")
        size = value_size if value_size is not None else self.owner.store.default_value_size
        self.writes[key] = int(size)

    def commit(self, done: Optional[Callable[[TxnOutcome], Any]] = None) -> None:
        """Request commit; ``done(outcome)`` fires with the verdict."""
        if self.state != "active" or self.commit_requested:
            raise SimulationError(f"commit on a {self.state} transaction")
        self.done = done
        self.commit_requested = True
        if self.pending_reads == 0:
            self.owner._start_commit(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Transaction(#{self.txn_id}, {self.state}, reads={self.n_reads}, "
            f"writes={len(self.writes)})"
        )


class TransactionalStore:
    """Atomic multi-key transactions over a replicated store.

    Parameters
    ----------
    store:
        The deployment to transact against.
    policy:
        The consistency policy transactional reads consult (``None`` =
        level ONE, the eventual baseline).
    config:
        Protocol tunables.
    wal_factory:
        ``node_id -> WriteAheadLog`` constructor. The sim backend keeps
        the default in-memory logs (durability is modeled, not real); the
        asyncio backend passes a file-backed factory so crash recovery
        replays actual disk state. Same protocol classes either way.
    """

    def __init__(
        self,
        store: ReplicatedStore,
        policy: Any = None,
        config: Optional[TxnConfig] = None,
        wal_factory: Optional[Callable[[int], WriteAheadLog]] = None,
    ):
        self.store = store
        #: The deployment's transport (clock, messaging, timers).
        self.transport = store.transport
        self.policy = policy
        self.config = config or TxnConfig()
        n = len(store.nodes)
        make_wal = wal_factory or WriteAheadLog
        self.wals: List[WriteAheadLog] = [make_wal(i) for i in range(n)]
        self.participants: List[TxnParticipant] = [
            TxnParticipant(self, i, self.wals[i]) for i in range(n)
        ]
        self.tms: List[TransactionManager] = [
            TransactionManager(self, i, self.wals[i]) for i in range(n)
        ]
        store.add_node_listener(self)
        #: the store listeners' ``on_txn_complete`` hooks, re-bound when the
        #: listener list has grown (listeners are only ever added)
        self._txn_hooks: List[Callable[[TxnOutcome], Any]] = []
        self._n_listeners = 0
        #: observability sink for 2PC phase transitions; ``None`` (the
        #: default) keeps every TM hook a single attribute-load + branch.
        self.obs = None

        self._txn_seq = 0
        self._inflight: Dict[int, Transaction] = {}
        # Every commit waits the same ``config.client_timeout``, so one
        # armed timer serves them all; a delivered transaction needs none.
        self._client_deadlines = DeadlineQueue(
            self.transport, self._client_timeout, done_attr="delivered"
        )
        self._register_wire_handlers()
        self._reset_counters()

    def _register_wire_handlers(self) -> None:
        """Name every protocol handler on the transport.

        The sim backend delivers callbacks by direct reference and only
        records these; a wire backend (asyncio) uses the registry to name
        each handler on the wire and to dispatch decoded frames. Keeping
        the registration here -- not in any backend harness -- is what
        guarantees both backends run the *same* wiring.
        """
        tr = self.transport
        for p in self.participants:
            i = p.node_id
            tr.register(f"p{i}.on_prepare", p.on_prepare)
            tr.register(f"p{i}.on_precommit", p.on_precommit)
            tr.register(f"p{i}.on_decision", p.on_decision)
            tr.register(f"p{i}.on_tm_working", p.on_tm_working)
            tr.register(f"p{i}.on_termination_query", p.on_termination_query)
            tr.register(f"p{i}.on_termination_reply", p.on_termination_reply)
        for tm in self.tms:
            i = tm.node_id
            tr.register(f"tm{i}.on_vote", tm.on_vote)
            tr.register(f"tm{i}.on_precommit_ack", tm.on_precommit_ack)
            tr.register(f"tm{i}.on_ack", tm.on_ack)
            tr.register(f"tm{i}.on_status_query", tm.on_status_query)

    def _reset_counters(self) -> None:
        self.txns_begun = 0
        self.commits = 0
        self.aborts: Dict[str, int] = {}
        self.in_doubt_client = 0
        self.in_doubt_resolved = 0
        self.lost_updates = 0
        self.txn_stale_reads = 0
        self.txn_msgs = 0
        self.txn_msg_bytes = 0
        self.commit_latency = Histogram(lo=1e-5, hi=60.0)
        # The WAL is append-only and the recovery counters are cumulative by
        # design (they are protocol state, not measurement surfaces), so the
        # summary reports them as deltas from this baseline -- keeping every
        # number in txn_summary() scoped to the same measurement interval.
        self._wal_records0 = sum(len(w) for w in self.wals)
        self._in_doubt_recovered0 = sum(
            p.in_doubt_recovered for p in self.participants
        )
        self._tm_recovery_resolved0 = sum(t.recovery_resolved for t in self.tms)
        self._termination_resolved0 = sum(
            p.termination_resolved for p in self.participants
        )
        self._blocked_time0 = sum(p.blocked_time for p in self.participants)

    # -- protocol messaging -------------------------------------------------------

    def send(self, src: int, dst: int, nbytes: int, fn: Callable[..., Any], *args: Any):
        """Send one protocol message, counted toward the run's message cost.

        Every TM/participant message is counted exactly once, so
        ``txn_summary()['msgs']``/``['msg_bytes']`` is the exact
        per-protocol message bill the shootout compares. The cold paths
        (status query/reply, termination query/reply) go through here; the
        commit round's own messages (prepare, vote, pre-commit, decision
        and their acks) do the same two bumps at their send sites (the TM's
        fan-out loops, the participant's ``_reply``) and call the transport
        directly.
        """
        self.txn_msgs += 1
        self.txn_msg_bytes += int(nbytes)
        return self.transport.send(src, dst, nbytes, fn, *args)

    # -- client API ---------------------------------------------------------------

    def begin(self, coordinator: Optional[int] = None) -> Transaction:
        """Open a transaction coordinated by ``coordinator`` (or a live node)."""
        self._txn_seq += 1
        coord: Optional[int] = None
        if coordinator is not None and self.store.nodes[coordinator].up:
            coord = int(coordinator)
        else:
            picked = self.store._pick_coordinator()
            coord = picked.node_id if picked is not None else None
        self.txns_begun += 1
        return Transaction(self, self._txn_seq, coord)

    def read_level(self):
        """The read level the active policy dials right now."""
        if self.policy is None:
            return 1
        return self.policy.read_level(self.transport.now)

    # -- commit orchestration -----------------------------------------------------

    def _start_commit(self, txn: Transaction) -> None:
        tr = self.transport
        txn.state = "committing"
        txn.t_commit = tr.now
        if txn.read_failed:
            self.aborts["read-failed"] = self.aborts.get("read-failed", 0) + 1
            self._deliver(txn, "aborted", "read-failed")
            return
        if not txn.writes:
            # Read-only: nothing to make atomic, commit locally.
            self.commits += 1
            self.commit_latency.add(1e-9)
            self._deliver(txn, "committed", None)
            return
        coord = txn.coordinator
        if coord is None or not self.store.nodes[coord].up:
            live = self.store._any_live_node()
            if live is None:
                self.aborts["unavailable"] = self.aborts.get("unavailable", 0) + 1
                self._deliver(txn, "aborted", "unavailable")
                return
            coord = live
            txn.coordinator = coord
        self._inflight[txn.txn_id] = txn
        self._client_deadlines.add(tr.now + self.config.client_timeout, txn)
        self.tms[coord].begin_commit(txn)

    def _client_timeout(self, txn: Transaction) -> None:
        """The commit is still undecided at its deadline: answer in-doubt."""
        self.in_doubt_client += 1
        self._deliver(txn, "in-doubt", "client-timeout")

    def txn_decided(self, txn_id: int, commit: bool, reason: Optional[str]) -> None:
        """TM callback at the decision point (or at recovery resolution)."""
        txn = self._inflight.pop(txn_id, None)
        if txn is None:
            return
        latency = self.transport.now - txn.t_commit
        if commit:
            self.commits += 1
            self.commit_latency.add(max(latency, 1e-9))
            self.txn_stale_reads += txn.stale_reads
        else:
            label = reason or "aborted"
            self.aborts[label] = self.aborts.get(label, 0) + 1
        if txn.delivered:
            # The client timed out into "in-doubt" earlier; the protocol has
            # now resolved it (the blocking window closed after the fact).
            # Listeners still hear the late verdict -- monitors must not
            # count the transaction as in-doubt forever -- but the client
            # callback, already answered, is not re-fired.
            self.in_doubt_resolved += 1
            txn.state = "finished"
            self._notify_listeners(
                TxnOutcome(
                    txn.txn_id,
                    "committed" if commit else "aborted",
                    "resolved-in-doubt",
                    txn,
                    self.transport.now,
                )
            )
            return
        self._deliver(txn, "committed" if commit else "aborted", reason)
        self._client_deadlines.settle()

    def grade_commit(self, txn_id: int, writes_by_key: Dict[str, Version]) -> None:
        """Oracle-side lost-update grading at the TM's commit point.

        A committing transaction that overwrites a key whose in-transaction
        read was **stale** (the oracle judged it older than the committed
        version at read time) has destroyed an update it never saw -- the
        classic lost-update anomaly, attributed precisely to staleness.
        Write-write races past a *fresh* read are not counted here; they
        are the prepare-lock conflicts' and validation's job. Pure
        measurement: the verdict never feeds back into the protocol.
        """
        txn = self._inflight.get(txn_id)
        if txn is None:
            return
        for key in sorted(writes_by_key):
            if key in txn.stale_keys:
                self.lost_updates += 1
                break

    def _notify_listeners(self, outcome: TxnOutcome) -> None:
        listeners = self.store._listeners
        if len(listeners) != self._n_listeners:
            self._n_listeners = len(listeners)
            self._txn_hooks = [
                listener.on_txn_complete
                for listener in listeners
                if hasattr(listener, "on_txn_complete")
            ]
        for hook in self._txn_hooks:
            hook(outcome)

    def _deliver(self, txn: Transaction, status: str, reason: Optional[str]) -> None:
        txn.delivered = True
        if status != "in-doubt":
            txn.state = "finished"
        outcome = TxnOutcome(txn.txn_id, status, reason, txn, self.transport.now)
        self._notify_listeners(outcome)
        if txn.done is not None:
            txn.done(outcome)

    # -- node lifecycle hooks (called by the store) -------------------------------

    def on_node_crash(self, node_id: int) -> None:
        """Volatile 2PC state dies with the node; the WAL survives."""
        self.participants[node_id].on_crash()
        self.tms[node_id].on_crash()

    def on_node_recover(self, node_id: int) -> None:
        """WAL recovery: rebuild prepared state, resolve unfinished rounds."""
        self.participants[node_id].on_recover()
        self.tms[node_id].on_recover()

    # -- metrics ------------------------------------------------------------------

    def in_doubt_now(self) -> int:
        """Transactions currently prepared-but-undecided somewhere.

        Derived from the WALs' incremental pending sets, not volatile
        state: a transaction held prepared in a *crashed* node's log is
        exactly as in doubt as one in a live node's memory -- recovery
        will have to resolve it either way, and the end-of-run audit must
        count it.
        """
        pending = set()
        for wal in self.wals:
            pending.update(wal.in_doubt())
        return len(pending)

    def blocked_participant_time(self) -> float:
        """Total prepared-without-decision dwell across all participants.

        The sum, over every (participant, transaction) pair, of the
        simulated seconds the pair spent prepared-without-decision **while
        the node was up** -- still-unresolved entries of live nodes accrue
        up to the current clock. Crash downtime is excluded: a crashed
        participant is dead, not blocked, and its dwell clock restarts at
        the recovery instant -- the same semantics the in-doubt-dwell
        oracle and the ``blocked_txn_time`` SLO apply, integrated exactly
        instead of per sampler tick (a pre-crash live stretch still
        counts here; the oracle's budget only watches the current one).
        """
        now = self.transport.now
        open_dwell = 0.0
        for p in self.participants:
            if not self.store.nodes[p.node_id].up:
                continue  # accrued into p.blocked_time at crash time
            for prep in p.prepared.values():
                open_dwell += now - prep.t_registered
        resolved = sum(p.blocked_time for p in self.participants)
        return (resolved - self._blocked_time0) + open_dwell

    def abort_count(self) -> int:
        return sum(self.aborts.values())

    def reset_metrics(self) -> None:
        """Zero txn and store measurement surfaces (warmup boundary)."""
        self._reset_counters()
        self.store.reset_metrics()

    def txn_summary(self) -> Dict[str, Any]:
        """One-shot transactional metrics snapshot (JSON-safe scalars).

        Every number covers the interval since the last
        :meth:`reset_metrics` (the warmup boundary in harness runs);
        cumulative protocol counters are converted to deltas.

        ``blocked_time`` is :meth:`blocked_participant_time`: the exact
        integral of live in-doubt dwell over *every* (participant, txn)
        pair, including the one-RTT prepared window each healthy commit
        round has. The ``blocked_txn_time`` SLO measures something
        stricter -- wall-clock time with any pair held past the dwell
        oracle's budget -- so the two share the dead-not-blocked crash
        semantics but are not the same number.
        """
        decided = self.commits + self.abort_count()
        return {
            "txns": decided,
            "commits": self.commits,
            "aborts": dict(sorted(self.aborts.items())),
            "abort_rate": self.abort_count() / decided if decided else 0.0,
            "commit_protocol": self.config.commit_protocol,
            "in_doubt_client": self.in_doubt_client,
            "in_doubt_resolved": self.in_doubt_resolved,
            "in_doubt_end": self.in_doubt_now(),
            "blocked_time": self.blocked_participant_time(),
            "lost_updates": self.lost_updates,
            "stale_txn_reads": self.txn_stale_reads,
            "msgs": self.txn_msgs,
            "msg_bytes": self.txn_msg_bytes,
            "commit_latency_mean_ms": self.commit_latency.mean * 1e3,
            "commit_latency_p99_ms": self.commit_latency.percentile(99) * 1e3,
            "wal_records": sum(len(w) for w in self.wals) - self._wal_records0,
            "in_doubt_recovered": (
                sum(p.in_doubt_recovered for p in self.participants)
                - self._in_doubt_recovered0
            ),
            "tm_recovery_resolved": (
                sum(t.recovery_resolved for t in self.tms)
                - self._tm_recovery_resolved0
            ),
            "termination_resolved": (
                sum(p.termination_resolved for p in self.participants)
                - self._termination_resolved0
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransactionalStore(nodes={len(self.store.nodes)}, "
            f"commits={self.commits}, aborts={self.abort_count()})"
        )
