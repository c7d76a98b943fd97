"""Crash-recovery property tests: atomicity through every crash window.

The acceptance property: a node crashed at *any* point between PREPARE and
COMMIT recovers via its WAL to a state where every transaction is either
atomically applied (all written keys, all replicas) or fully absent -- once
the cluster settles, no partial write is observable at any read level.

The tests sweep the crash instant across the whole commit window (before
the prepare arrives, while prepared, after the decision, during the ack
round) for both a participant and the transaction manager, then assert
the all-or-nothing invariant on the settled cluster state and on actual
reads at every consistency level -- for every commit protocol. The
cooperative-termination tests additionally kill the TM *permanently* and
require every live prepared participant to unblock without it, inside
the bound the deterministic backoff schedule implies. A final set pins
down that recovery ordering itself is deterministic (byte-identical WAL
streams) and that the WAL's incremental pending sets match their
full-scan specification at every settle point.
"""

from __future__ import annotations

import pytest

from repro.cluster.replication import SimpleStrategy
from repro.cluster.store import StoreConfig
from repro.net.latency import FixedLatency
from repro.net.topology import Datacenter, LinkClass, Topology
from repro.simcore.simulator import Simulator
from repro.txn.api import PROTOCOLS, TransactionalStore, TxnConfig
from tests.conftest import sim_store


def fast_config(protocol: str = "2pc") -> TxnConfig:
    """Fast protocol clocks so every window closes within simulated seconds."""
    return TxnConfig(
        prepare_timeout=0.05,
        client_timeout=0.2,
        retry_interval=0.01,
        status_interval=0.01,
        status_backoff=2.0,
        status_interval_max=0.05,
        termination_after=2,
        commit_protocol=protocol,
    )


FAST = fast_config()

#: With FixedLatency(0.0005) the uncontended commit timeline is:
#: prepare arrives +0.5 ms, votes land +1 ms (decision), commit messages
#: arrive +1.5 ms, acks land +2 ms. The sweep brackets all of it.
CRASH_TIMES = [
    0.0002, 0.0004, 0.0006, 0.0009, 0.0012, 0.0014, 0.0016, 0.0019,
    0.0022, 0.0025, 0.0030, 0.0035,
]


def build(config: TxnConfig = FAST):
    topo = Topology(
        [Datacenter("dc", "r")],
        [5],
        latency={LinkClass.INTRA_DC: FixedLatency(0.0005)},
    )
    store = sim_store(
        Simulator(),
        topo,
        strategy=SimpleStrategy(rf=3),
        config=StoreConfig(seed=2, read_repair_chance=0.0),
    )
    tstore = TransactionalStore(store, config=config)
    return store, tstore


def assert_wal_sets_match_scan(tstore):
    """The incremental pending sets equal their full-scan specification."""
    for w in tstore.wals:
        assert w.in_doubt() == w.in_doubt_scan()
        assert [r.lsn for r in w.tm_unfinished()] == [
            r.lsn for r in w.tm_unfinished_scan()
        ]


def txn_versions_present(store, tstore, keys):
    """Per (key, replica): does it hold the transaction's exact version?

    The scripted transaction is the only writer, so "the transaction's
    version" is any version newer than the preloaded one.
    """
    flags = []
    for key in keys:
        for r in store.strategy.replicas(key, store.ring, store.topology):
            v = store.nodes[r].data.get(key)
            flags.append(v is not None and v.size == 77)
    return flags


def assert_atomic(store, tstore, keys, outcomes):
    """The all-or-nothing invariant, checked three ways."""
    flags = txn_versions_present(store, tstore, keys)
    assert all(flags) or not any(flags), (
        f"partial transaction visible: {flags} (outcomes={outcomes})"
    )
    # Nothing may stay in doubt or locked once the cluster has settled.
    assert tstore.in_doubt_now() == 0
    assert all(not p.locks for p in tstore.participants)
    # No read level may observe a mix: at every level, every key agrees on
    # whether the transaction happened.
    levels_seen = set()
    for level in (1, 2, 3):
        results = []
        for key in keys:
            store.read(key, level, results.append)
        store.sim.run(until=store.sim.now + 1.0)
        got = tuple(r.ok and r.version is not None and r.version.size == 77 for r in results)
        assert len(set(got)) == 1, f"level {level} sees a partial txn: {got}"
        levels_seen.add(got[0])
    assert len(levels_seen) == 1  # all levels agree with the settled state
    assert_wal_sets_match_scan(tstore)
    return all(flags)


def run_scripted_txn(crash_node, crash_at, recover_after=0.05, config=FAST,
                     recover=True):
    """One scripted two-key transaction with a crash injected mid-window."""
    store, tstore = build(config)
    keys = ["user0", "user1"]
    store.preload(keys, value_size=10)
    outcomes = []

    def go():
        txn = tstore.begin(coordinator=1)
        for key in keys:
            txn.read(key)
            txn.write(key, 77)
        txn.commit(outcomes.append)

    store.sim.schedule(0.0, go)
    store.sim.schedule_at(crash_at, store.on_node_crash, crash_node)
    if recover:
        store.sim.schedule_at(
            crash_at + recover_after, store.on_node_recover, crash_node
        )
    store.sim.run(until=5.0)
    return store, tstore, keys, outcomes


def run_write_txn(crash_node, crash_at, config=FAST, recover=True,
                  recover_after=0.05, extra_crash=None):
    """A write-only transaction: the commit fan-out starts at t=0 on node 1.

    Unlike :func:`run_scripted_txn` there are no reads to wait out, so the
    TM is pinned to node 1 *before* any crash fires -- crashing node 1
    mid-window really kills the coordinator of an in-flight round
    (`_start_commit` would otherwise re-route to a live node). Timeline
    with 0.5 ms links: prepares land +0.5 ms, votes +1 ms (= the 2PC
    decision point), decision lands +1.5 ms, acks +2 ms; 3PC inserts its
    pre-commit round, shifting decision/acks one RTT later.
    """
    store, tstore = build(config)
    keys = ["user0", "user1"]
    store.preload(keys, value_size=10)
    outcomes = []

    def go():
        txn = tstore.begin(coordinator=1)
        for key in keys:
            txn.write(key, 77)
        txn.commit(outcomes.append)

    store.sim.schedule(0.0, go)
    store.sim.schedule_at(crash_at, store.on_node_crash, crash_node)
    if extra_crash is not None:
        store.sim.schedule_at(crash_at, store.on_node_crash, extra_crash)
    if recover:
        store.sim.schedule_at(
            crash_at + recover_after, store.on_node_recover, crash_node
        )
    store.sim.run(until=5.0)
    return store, tstore, keys, outcomes


def live_txn_flags(store, keys):
    """Per (key, live replica): does it hold the transaction's version?"""
    flags = []
    for key in keys:
        for r in store.strategy.replicas(key, store.ring, store.topology):
            if not store.nodes[r].up:
                continue
            v = store.nodes[r].data.get(key)
            flags.append(v is not None and v.size == 77)
    return flags


def participant_nodes():
    """The replica set of the scripted transaction's keys (stable: seed 2)."""
    store, _ = build()
    nodes = set()
    for key in ("user0", "user1"):
        nodes.update(store.strategy.replicas(key, store.ring, store.topology))
    return sorted(nodes)


PARTICIPANTS = participant_nodes()


class TestParticipantCrashWindow:
    @pytest.mark.parametrize("crash_at", CRASH_TIMES)
    @pytest.mark.parametrize("victim", PARTICIPANTS[:2])
    def test_atomic_through_any_crash_instant(self, crash_at, victim):
        store, tstore, keys, outcomes = run_scripted_txn(victim, crash_at)
        applied = assert_atomic(store, tstore, keys, outcomes)
        # The client always learns a definite outcome (commit, abort, or an
        # in-doubt that the recovery pass later resolves).
        assert len(outcomes) == 1
        if outcomes[0].status == "committed":
            assert applied
        if outcomes[0].status == "aborted":
            assert not applied

    def test_crash_between_prepare_and_commit_recovers_via_wal(self):
        # Crash exactly while prepared (vote sent, decision logged by the
        # TM but not yet delivered): the recovered node must learn COMMIT
        # through its WAL + status query and apply the buffered writes.
        store, tstore = build()
        keys = ["user0", "user1"]
        store.preload(keys, value_size=10)
        victim = next(p for p in PARTICIPANTS if p != 1)
        outcomes = []

        def go():  # write-only: prepare +0.5ms, decision +1ms, commit +1.5ms
            txn = tstore.begin(coordinator=1)
            for key in keys:
                txn.write(key, 77)
            txn.commit(outcomes.append)

        store.sim.schedule(0.0, go)
        store.sim.schedule_at(0.0012, store.on_node_crash, victim)
        store.sim.schedule_at(0.05, store.on_node_recover, victim)
        store.sim.run(until=5.0)

        assert outcomes[0].status == "committed"  # decided before the crash
        assert tstore.participants[victim].in_doubt_recovered == 1
        assert assert_atomic(store, tstore, keys, outcomes)

    def test_crash_wipes_volatile_state_only(self):
        store, tstore = build()
        keys = ["user0"]
        store.preload(keys, value_size=10)

        def go():
            txn = tstore.begin(coordinator=1)
            txn.write("user0", 77)
            txn.commit()

        victim = store.strategy.replicas("user0", store.ring, store.topology)[0]
        store.sim.schedule(0.0, go)
        store.sim.schedule_at(0.0009, store.on_node_crash, victim)
        store.sim.run(until=0.001)
        p = tstore.participants[victim]
        assert not p.locks and not p.prepared  # volatile state gone
        assert len(p.wal) >= 1  # the WAL survived the crash


class TestTmCrashWindow:
    @pytest.mark.parametrize("crash_at", CRASH_TIMES)
    def test_atomic_through_any_tm_crash_instant(self, crash_at):
        # Node 1 coordinates the scripted transaction (and may also be a
        # participant), so this sweeps TM crashes across the whole round.
        store, tstore, keys, outcomes = run_scripted_txn(1, crash_at)
        applied = assert_atomic(store, tstore, keys, outcomes)
        if outcomes and outcomes[0].status == "committed":
            assert applied

    def test_tm_crash_before_decision_presumed_aborts(self):
        # Crash the TM after prepares landed but before votes return: every
        # prepared participant must resolve to abort via the recovery pass.
        store, tstore = build()
        keys = ["user0", "user1"]
        store.preload(keys, value_size=10)
        outcomes = []

        def go():  # write-only: prepares land +0.5ms, votes land +1ms
            txn = tstore.begin(coordinator=1)
            for key in keys:
                txn.write(key, 77)
            txn.commit(outcomes.append)

        store.sim.schedule(0.0, go)
        store.sim.schedule_at(0.0007, store.on_node_crash, 1)
        store.sim.schedule_at(0.05, store.on_node_recover, 1)
        store.sim.run(until=5.0)

        assert not any(txn_versions_present(store, tstore, keys))
        assert tstore.in_doubt_now() == 0
        # The abort surfaced through the TM's recovery pass, not silence.
        assert tstore.tms[1].recovery_resolved == 1
        assert [o.status for o in outcomes] == ["aborted"]
        assert outcomes[0].reason == "tm-crash"


class TestProtocolCrashWindows:
    """The atomicity sweep holds for every protocol, both crash sides."""

    @pytest.mark.parametrize("crash_at", CRASH_TIMES + [0.0040, 0.0045])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_tm_crash_recover_atomic(self, crash_at, protocol):
        store, tstore, keys, outcomes = run_scripted_txn(
            1, crash_at, config=fast_config(protocol)
        )
        applied = assert_atomic(store, tstore, keys, outcomes)
        if outcomes and outcomes[0].status == "committed":
            assert applied

    @pytest.mark.parametrize("crash_at", CRASH_TIMES)
    @pytest.mark.parametrize("protocol", ["2pc-coop", "3pc"])
    def test_participant_crash_recover_atomic(self, crash_at, protocol):
        store, tstore, keys, outcomes = run_scripted_txn(
            PARTICIPANTS[0], crash_at, config=fast_config(protocol)
        )
        assert_atomic(store, tstore, keys, outcomes)


class TestCooperativeTermination:
    """The TM dies for good: no prepared participant may stay blocked."""

    @pytest.mark.parametrize("crash_at", CRASH_TIMES + [0.0040, 0.0045])
    @pytest.mark.parametrize("protocol", ["2pc-coop", "3pc"])
    def test_tm_dead_forever_every_participant_unblocks(self, crash_at, protocol):
        store, tstore, keys, _ = run_write_txn(
            1, crash_at, config=fast_config(protocol), recover=False
        )
        live = [p for p in tstore.participants if store.nodes[p.node_id].up]
        # Termination leaves no live participant wedged, with no TM ever
        # coming back: nothing prepared, no lingering prepare locks.
        assert all(not p.prepared and not p.locks for p in live)
        # Live replicas agree atomically on the round's outcome.
        flags = live_txn_flags(store, keys)
        assert all(flags) or not any(flags)
        assert_wal_sets_match_scan(tstore)

    def test_plain_2pc_blocks_forever_without_tm(self):
        # The contrast case the shootout quantifies: blocking 2PC leaves
        # prepared participants wedged when the TM never returns.
        store, tstore, keys, _ = run_write_txn(
            1, 0.0007, config=fast_config("2pc"), recover=False
        )
        live = [p for p in tstore.participants if store.nodes[p.node_id].up]
        assert any(p.prepared for p in live)
        assert tstore.blocked_participant_time() > 1.0  # wedged for the run

    def test_undecided_round_terminates_to_abort(self):
        # Crash after the prepares land but before the votes return: the
        # TM never decided, so the unique safe outcome is abort -- reached
        # cooperatively, counted, and within the backoff-schedule bound.
        config = fast_config("2pc-coop")
        store, tstore, keys, _ = run_write_txn(
            1, 0.0007, config=config, recover=False
        )
        live = [p for p in tstore.participants if store.nodes[p.node_id].up]
        assert not any(live_txn_flags(store, keys))
        resolved = [p for p in live if p.termination_resolved]
        assert resolved
        # Dwell bound: two polls of the capped jittered schedule bring the
        # termination round, plus one reply window, plus message slack.
        cap = config.status_interval_max * (1.0 + config.status_jitter)
        bound = config.termination_after * cap + config.prepare_timeout + 0.01
        assert all(p.blocked_time <= bound for p in resolved)
        assert tstore.blocked_participant_time() <= bound * len(live)

    def test_3pc_precommitted_round_terminates_to_commit(self):
        # Crash the TM right after the pre-commits are delivered: every
        # live participant holds a pre-commit record, so the round drives
        # itself to COMMIT without the TM (the 3PC non-blocking rule).
        store, tstore, keys, _ = run_write_txn(
            1, 0.0017, config=fast_config("3pc"), recover=False
        )
        live = [p for p in tstore.participants if store.nodes[p.node_id].up]
        assert all(not p.prepared and not p.locks for p in live)
        flags = live_txn_flags(store, keys)
        assert flags and all(flags)
        assert sum(p.termination_resolved for p in live) >= 1

    def test_3pc_tm_recovery_resumes_precommit_barrier(self):
        # With a *recovering* TM the pre-committed round must finish as
        # COMMIT through the TM's own WAL replay (tm-precommit means the
        # round can never abort again).
        store, tstore, keys, outcomes = run_write_txn(
            1, 0.0017, config=fast_config("3pc")
        )
        assert assert_atomic(store, tstore, keys, outcomes)
        assert [o.status for o in outcomes] == ["committed"]

    @pytest.mark.parametrize("protocol", ["2pc-coop", "3pc"])
    def test_recovered_participant_blocks_instead_of_diverging(self, protocol):
        # The crash-overlap hole: a participant down for the COMMIT
        # fan-out recovers into a world where the TM (which durably
        # logged tm-commit) and every co-participant (which durably
        # committed and applied) are dead. TM silence plus silent peers
        # proves nothing to a *recovered* node -- unilaterally aborting
        # here would diverge from the peers' committed replicas. It must
        # block instead, and resolve to COMMIT once the TM returns.
        config = fast_config(protocol)
        store, tstore = build(config)
        keys = ["user0", "user1"]
        store.preload(keys, value_size=10)
        outcomes = []

        def go():  # write-only: decision +1ms (2pc) / +2ms (3pc)
            txn = tstore.begin(coordinator=1)
            for key in keys:
                txn.write(key, 77)
            txn.commit(outcomes.append)

        victim = next(p for p in PARTICIPANTS if p != 1)
        others = [p for p in PARTICIPANTS if p != victim]
        store.sim.schedule(0.0, go)
        # Crash the victim while prepared-without-decision: the COMMIT
        # fan-out is dropped at it while its peers log commit and apply.
        # (Under 3pc the victim also misses PRE-COMMIT; the TM's ack
        # window closes at prepare_timeout=0.05 and commits anyway.)
        store.sim.schedule_at(0.0012, store.on_node_crash, victim)
        # Then -- commit now durable at the TM and the peers -- the TM
        # and every co-participant die (for now, for good).
        for node in sorted({1, *others}):
            store.sim.schedule_at(0.06, store.on_node_crash, node)
        store.sim.schedule_at(0.1, store.on_node_recover, victim)
        store.sim.run(until=5.0)

        assert [o.status for o in outcomes] == ["committed"]
        # The dead peers hold durable commits...
        assert any(
            tstore.wals[n].decision_for(1) == "commit" for n in others
        )
        # ...so the recovered victim must still be blocked, not aborted.
        p = tstore.participants[victim]
        assert list(p.prepared) == [1]
        assert p.wal.decision_for(1) is None
        assert p.termination_resolved == 0

        # TM recovery replays tm-commit and re-drives the decision: the
        # blocked participant finally commits, atomically with its peers.
        store.sim.schedule_at(5.5, store.on_node_recover, 1)
        store.sim.run(until=8.0)
        assert p.wal.decision_for(1) == "commit"
        assert not p.prepared and not p.locks
        v = store.nodes[victim].data.get("user0") or store.nodes[victim].data.get("user1")
        assert v is not None and v.size == 77

    def test_blocked_time_excludes_crash_downtime(self):
        # blocked_participant_time counts live dwell only, matching the
        # dwell oracle's dead-not-blocked rule: a participant that spends
        # [1s, 3s] crashed while in doubt accrues dwell on both sides of
        # the crash but nothing for the downtime itself.
        store, tstore = build(fast_config("2pc"))
        keys = ["user0", "user1"]
        store.preload(keys, value_size=10)

        def go():
            txn = tstore.begin(coordinator=1)
            for key in keys:
                txn.write(key, 77)
            txn.commit()

        victim = next(p for p in PARTICIPANTS if p != 1)
        store.sim.schedule(0.0, go)
        # Kill the TM before the decision: everyone stays in doubt.
        store.sim.schedule_at(0.0007, store.on_node_crash, 1)
        store.sim.schedule_at(1.0, store.on_node_crash, victim)
        store.sim.schedule_at(3.0, store.on_node_recover, victim)
        store.sim.run(until=5.0)

        p = tstore.participants[victim]
        rec = p.wal.prepare_record(1)
        # The pre-crash live stretch was banked at the crash instant...
        assert p.blocked_time == pytest.approx(1.0 - rec.time)
        # ...and the post-recovery stretch restarted at the recovery
        # instant, so the open dwell excludes the 2s of downtime.
        (prep,) = p.prepared.values()
        assert prep.t_registered == pytest.approx(3.0)
        assert prep.recovered
        # Whole-store integral: every participant dwells over its live
        # prepared stretches only -- the victim's [1s, 3s] downtime is
        # carved out, and a participant down at the end (node 1, if it
        # replicates a key) contributes just its banked pre-crash dwell.
        now = store.sim.now
        expected = 0.0
        for q in tstore.participants:
            r = q.wal.prepare_record(1)
            if r is None:
                continue
            if q.node_id == victim:
                expected += (1.0 - r.time) + (now - 3.0)
            elif not store.nodes[q.node_id].up:
                expected += max(0.0007 - r.time, 0.0)  # up until its crash
            else:
                expected += now - r.time
        assert tstore.blocked_participant_time() == pytest.approx(expected)

    def test_termination_leaves_no_stray_poll_state(self):
        # _poll must not reschedule after a termination round resolved
        # the transaction: _resolve already cleaned the poll state.
        store, tstore, keys, _ = run_write_txn(
            1, 0.0007, config=fast_config("2pc-coop"), recover=False
        )
        live = [p for p in tstore.participants if store.nodes[p.node_id].up]
        assert all(not p.prepared for p in live)
        # A poll that outlived its entry would query the TM again.
        msgs = tstore.txn_msgs
        store.sim.run(until=store.sim.now + 10.0)
        assert tstore.txn_msgs == msgs

    def test_dead_peer_round_concludes_by_timeout(self):
        # TM *and* one participant die together: the survivors' termination
        # round can never hear from the dead peer, so the reply-window
        # timeout must conclude it (missing peers count as uncertain).
        dead_peer = next(p for p in PARTICIPANTS if p != 1)
        store, tstore, keys, _ = run_write_txn(
            1, 0.0007, config=fast_config("2pc-coop"), recover=False,
            extra_crash=dead_peer,
        )
        live = [p for p in tstore.participants if store.nodes[p.node_id].up]
        assert all(not p.prepared and not p.locks for p in live)
        assert not any(live_txn_flags(store, keys))
        assert any(p.termination_resolved for p in live)

    def test_stale_round_timer_cannot_conclude_a_newer_round(self):
        # Default-shaped timeouts (reply window = prepare_timeout = 5 s,
        # polls 0.5 s doubling). Node 0's first poll is cut off from the TM
        # and its second, which also opens round 1, gets through: the TM --
        # still waiting for dead node 1's vote -- answers "working", which
        # closes the round, and then dies. Polls 3 and 4 go unanswered and
        # round 2 opens ~3.2 s after round 1, well inside round 1's window.
        # Round 1's timer must not conclude it.
        link = FixedLatency(0.0005)
        topo = Topology(
            [Datacenter("a", "ra"), Datacenter("b", "rb")],
            [3, 1],
            latency={LinkClass.INTRA_DC: link, LinkClass.INTER_REGION: link},
        )
        store = sim_store(
            Simulator(),
            topo,
            strategy=SimpleStrategy(rf=3),
            config=StoreConfig(seed=2, read_repair_chance=0.0),
        )
        config = TxnConfig(commit_protocol="2pc-coop")
        tstore = TransactionalStore(store, config=config)
        key = next(
            k
            for k in (f"user{i}" for i in range(200))
            if sorted(store.strategy.replicas(k, store.ring, topo)) == [0, 1, 2]
        )
        store.preload([key], value_size=10)

        def go():  # the TM (node 3, alone in DC b) is no participant
            txn = tstore.begin(coordinator=3)
            txn.write(key, 77)
            txn.commit()

        sim = store.sim
        sim.schedule(0.0, go)
        sim.schedule_at(0.0002, store.on_node_crash, 1)  # never votes
        sim.schedule_at(0.1, store.network.partition_dcs, 0, 1)
        sim.schedule_at(1.0, store.network.heal_all)
        sim.schedule_at(2.5, store.on_node_crash, 3)

        def delay(attempt):
            return config.poll_delay(store.config.seed, 0, 1, attempt)

        window = config.prepare_timeout
        round1 = 0.0005 + delay(0) + delay(1)
        round2 = round1 + delay(2) + delay(1)
        assert round2 < round1 + window < round2 + window
        p = tstore.participants[0]
        sim.run(until=round1 + window + 0.01)  # round 1's timer has fired
        assert list(p.prepared) == [1]
        assert p.termination_resolved == 0
        sim.run(until=60.0)
        assert not p.prepared and p.wal.decision_for(1) == "abort"
        assert p.wal.records[-1].time >= round2 + window


class TestPollBackoff:
    def test_poll_delay_deterministic_capped_and_jittered(self):
        cfg = fast_config()
        delays = [cfg.poll_delay(7, 3, 11, a) for a in range(8)]
        assert delays == [cfg.poll_delay(7, 3, 11, a) for a in range(8)]
        for attempt, d in enumerate(delays):
            base = min(
                cfg.status_interval * cfg.status_backoff**attempt,
                cfg.status_interval_max,
            )
            assert base <= d <= base * (1.0 + cfg.status_jitter)
        # Different pollers decorrelate (no synchronized query bursts).
        assert cfg.poll_delay(7, 3, 11, 1) != cfg.poll_delay(7, 4, 11, 1)
        assert cfg.poll_delay(7, 3, 11, 1) != cfg.poll_delay(7, 3, 12, 1)
        assert cfg.poll_delay(7, 3, 11, 1) != cfg.poll_delay(8, 3, 11, 1)

    def test_zero_jitter_is_the_pure_exponential(self):
        cfg = TxnConfig(
            status_interval=0.1,
            status_backoff=2.0,
            status_interval_max=0.4,
            status_jitter=0.0,
        )
        assert [cfg.poll_delay(1, 1, 1, a) for a in range(4)] == [
            0.1, 0.2, 0.4, 0.4,
        ]


class TestRecoveryDeterminism:
    def wal_fingerprint(self, tstore):
        return [
            (w.node_id, r.lsn, r.txn_id, r.kind, round(r.time, 9))
            for w in tstore.wals
            for r in w.records
        ]

    @pytest.mark.parametrize("crash_at", [0.0009, 0.0014])
    def test_recovery_ordering_byte_identical(self, crash_at):
        a = run_scripted_txn(PARTICIPANTS[0], crash_at)
        b = run_scripted_txn(PARTICIPANTS[0], crash_at)
        assert self.wal_fingerprint(a[1]) == self.wal_fingerprint(b[1])
        assert [o.status for o in a[3]] == [o.status for o in b[3]]
        assert a[1].txn_summary() == b[1].txn_summary()

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_termination_runs_byte_identical(self, protocol):
        # Backoff jitter is derived, not drawn: two identical runs through
        # polling *and* termination produce byte-identical WAL streams.
        cfg = fast_config(protocol)
        a = run_write_txn(1, 0.0007, config=cfg, recover=False)
        b = run_write_txn(1, 0.0007, config=cfg, recover=False)
        assert self.wal_fingerprint(a[1]) == self.wal_fingerprint(b[1])
        assert a[1].txn_summary() == b[1].txn_summary()
