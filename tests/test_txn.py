"""Tests for the transaction subsystem: WAL, 2PC, API, mixes, scenarios."""

from __future__ import annotations

import pytest

from repro.cluster.versions import Version
from repro.common.errors import ConfigError, SimulationError
from repro.obs.recorder import ObsConfig, RunObserver
from repro.txn.api import TransactionalStore, TxnConfig
from repro.txn.runner import TxnRunner
from repro.txn.wal import (
    REC_ABORT,
    REC_COMMIT,
    REC_PREPARE,
    REC_TM_ABORT,
    REC_TM_BEGIN,
    REC_TM_COMMIT,
    REC_TM_END,
    WriteAheadLog,
)
from repro.workload.workloads import (
    TXN_WORKLOADS,
    TxnWorkloadSpec,
    bank_transfer_mix,
    order_checkout_mix,
    read_modify_write_mix,
)
from tests.conftest import sim_store
from tests.wal_history import RecordingLog


#: Small timeouts so failure-path tests settle in simulated milliseconds.
FAST = dict(
    prepare_timeout=0.05, client_timeout=0.2, retry_interval=0.01, status_interval=0.01
)


def settle(store, horizon: float = 10.0) -> None:
    """Run the simulator until the protocol machinery goes quiet."""
    store.sim.run(until=store.sim.now + horizon)


def replicas_of(store, key):
    return store.strategy.replicas(key, store.ring, store.topology)


class TestWriteAheadLog:
    def test_append_and_indexing(self):
        wal = RecordingLog(3)
        wal.append(REC_PREPARE, 7, 1.0, tm_node=0, writes={})
        wal.append(REC_COMMIT, 7, 2.0)
        wal.append(REC_PREPARE, 8, 3.0, tm_node=0, writes={})
        assert len(wal) == 3
        assert wal.kinds_for(7) == (REC_PREPARE, REC_COMMIT)
        assert [r.lsn for r in wal.records_for(7)] == [0, 1]
        assert wal.prepare_record(8).data["tm_node"] == 0

    def test_in_doubt_is_prepare_without_decision(self):
        wal = WriteAheadLog(0)
        wal.append(REC_PREPARE, 1, 0.0, tm_node=0, writes={})
        wal.append(REC_PREPARE, 2, 0.1, tm_node=0, writes={})
        wal.append(REC_ABORT, 2, 0.2)
        wal.append(REC_PREPARE, 3, 0.3, tm_node=0, writes={})
        wal.append(REC_COMMIT, 3, 0.4)
        assert wal.in_doubt() == [1]

    def test_tm_queries(self):
        wal = WriteAheadLog(0)
        wal.append(REC_TM_BEGIN, 1, 0.0, participants=[0, 1])
        wal.append(REC_TM_COMMIT, 1, 0.1)
        wal.append(REC_TM_BEGIN, 2, 0.2, participants=[2])
        wal.append(REC_TM_BEGIN, 3, 0.3, participants=[0])
        wal.append(REC_TM_ABORT, 3, 0.4)
        wal.append(REC_TM_END, 3, 0.5)
        assert wal.tm_decision(1) == "commit"
        assert wal.tm_decision(2) is None
        assert wal.tm_decision(3) == "abort"
        assert [r.txn_id for r in wal.tm_unfinished()] == [1, 2]


class TestTxnWorkloadSpec:
    def test_builtin_mixes(self):
        assert set(TXN_WORKLOADS) == {
            "bank-transfer",
            "read-modify-write",
            "order-checkout",
        }
        bank = bank_transfer_mix()
        assert bank.n_keys == 2 and bank.read_slots == (0, 1)
        rmw = read_modify_write_mix()
        assert rmw.n_keys == 1
        checkout = order_checkout_mix()
        assert set(checkout.read_slots) & set(checkout.write_slots) == {2}

    def test_validation(self):
        with pytest.raises(ConfigError, match="outside"):
            TxnWorkloadSpec("x", n_keys=2, read_slots=(2,), write_slots=(0,))
        with pytest.raises(ConfigError, match="at least one"):
            TxnWorkloadSpec("x", n_keys=1, read_slots=(), write_slots=())
        with pytest.raises(ConfigError, match="distinct"):
            TxnWorkloadSpec(
                "x", n_keys=4, read_slots=(0,), write_slots=(1,), record_count=3
            )

    def test_sample_keys_distinct(self):
        spec = bank_transfer_mix(record_count=10)
        chooser = spec.make_chooser(rng=1)
        for _ in range(50):
            keys = spec.sample_keys(chooser)
            assert len(set(keys)) == spec.n_keys

    def test_sample_keys_degenerate_distribution(self):
        # A hotspot so extreme the chooser returns the same index forever:
        # the deterministic probe must still produce distinct keys.
        spec = TxnWorkloadSpec(
            "hot",
            n_keys=3,
            read_slots=(0,),
            write_slots=(1, 2),
            record_count=5,
            distribution="hotspot",
            distribution_kwargs={"hot_set_fraction": 0.2, "hot_opn_fraction": 1.0},
        )
        keys = spec.sample_keys(spec.make_chooser(rng=1))
        assert len(set(keys)) == 3


class TestCommitPath:
    def test_commit_applies_atomically_everywhere(self, simple_store):
        store = simple_store
        t = TransactionalStore(store, config=TxnConfig(**FAST))
        outcomes = []

        def go():
            txn = t.begin(coordinator=0)
            txn.write("a", 100)
            txn.write("b", 100)
            txn.commit(outcomes.append)

        store.sim.schedule(0.0, go)
        settle(store)

        assert [o.status for o in outcomes] == ["committed"]
        assert t.commits == 1 and t.abort_count() == 0
        for key in ("a", "b"):
            versions = {store.nodes[r].data.get(key) for r in replicas_of(store, key)}
            assert len(versions) == 1 and None not in versions
        # The oracle saw the commit: a quorum read is judged against it.
        assert store.oracle.expected_version("a")[0].size == 100

    def test_commit_of_an_older_version_loses_to_a_newer_write(
        self, simple_store, monkeypatch
    ):
        # A committed write goes through the replica's last-write-wins install:
        # it still counts as applied and reaches the oracle, but never
        # overwrites the newer version a plain write already put there.
        store = simple_store
        t = TransactionalStore(store, config=TxnConfig(**FAST))
        store.sim.schedule_at(0.1, store.write, "k", 3)
        settle(store)
        r = replicas_of(store, "k")[0]
        node = store.nodes[r]
        newer, applied = node.data["k"], node.writes_applied
        notes = []
        monkeypatch.setattr(
            store.oracle, "note_replica_applied", lambda v, at: notes.append(v)
        )
        older = Version(0.05, 10**6, 100)
        assert newer.newer_than(older)
        participant = t.participants[r]
        participant.on_prepare(77, 0, {"k": older}, {})
        participant.on_decision(77, 0, True)
        assert node.data["k"] is newer
        assert node.writes_applied == applied + 1
        assert notes == [older]
        # the commit resolved here: logged, no longer prepared
        assert t.wals[r].decision_for(77) == "commit" and 77 not in participant.prepared

    def test_wal_records_of_a_commit(self, simple_store):
        store = simple_store
        t = TransactionalStore(store, config=TxnConfig(**FAST), wal_factory=RecordingLog)

        def go():
            txn = t.begin(coordinator=0)
            txn.write("a", 100)
            txn.commit()

        store.sim.schedule(0.0, go)
        settle(store)

        tm_kinds = t.wals[0].kinds_for(1)
        assert REC_TM_BEGIN in tm_kinds
        assert REC_TM_COMMIT in tm_kinds
        assert REC_TM_END in tm_kinds
        for r in replicas_of(store, "a"):
            kinds = [k for k in t.wals[r].kinds_for(1) if k in (REC_PREPARE, REC_COMMIT)]
            assert kinds == [REC_PREPARE, REC_COMMIT]
        assert t.in_doubt_now() == 0

    def test_read_only_commit_is_local(self, simple_store):
        store = simple_store
        store.preload(["a"])
        t = TransactionalStore(store, config=TxnConfig(**FAST))
        outcomes = []

        def go():
            txn = t.begin()
            txn.read("a")
            txn.commit(outcomes.append)

        store.sim.schedule(0.0, go)
        settle(store)
        assert outcomes[0].status == "committed" and outcomes[0].stale_reads == 0
        assert store.ops_completed() == 1  # the transaction's one read
        assert sum(len(w) for w in t.wals) == 0  # no 2PC round was needed

    def test_reads_route_through_policy_level(self, simple_store):
        store = simple_store
        store.preload(["a"])

        class Probe:
            name = "probe"
            calls = 0

            def read_level(self, now):
                Probe.calls += 1
                return 3

            def write_level(self, now):
                return 1

        t = TransactionalStore(store, policy=Probe(), config=TxnConfig(**FAST))
        seen = []

        def go():
            txn = t.begin()
            txn.read("a", seen.append)
            txn.commit()

        store.sim.schedule(0.0, go)
        settle(store)
        assert Probe.calls == 1
        assert seen[0].level_label == "n=3"
        assert seen[0].version is not None

    def test_single_use_handles(self, simple_store):
        store = simple_store
        t = TransactionalStore(store, config=TxnConfig(**FAST))
        txn = t.begin()
        txn.commit()
        settle(store)
        with pytest.raises(SimulationError):
            txn.read("a")
        with pytest.raises(SimulationError):
            txn.write("a")
        with pytest.raises(SimulationError):
            txn.commit()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TxnConfig(prepare_timeout=0.0)
        with pytest.raises(ConfigError):
            TxnConfig(retry_interval=-1.0)


class TestConflictsAndValidation:
    def test_concurrent_writers_conflict(self, simple_store):
        store = simple_store
        store.preload(["k"])
        t = TransactionalStore(store, config=TxnConfig(**FAST))
        outcomes = []

        def writer():
            # Same coordinator for both: lock acquisition order is then
            # consistent across replicas, so exactly one writer wins.
            txn = t.begin(coordinator=1)
            txn.write("k", 100)
            txn.commit(outcomes.append)

        store.sim.schedule(0.0, writer)
        store.sim.schedule(0.0001, writer)  # lands inside the prepare window
        settle(store)

        statuses = sorted(o.status for o in outcomes)
        assert statuses == ["aborted", "committed"]
        assert t.aborts == {"conflict": 1}
        # The committed writer's version is on every replica.
        versions = {store.nodes[r].data.get("k") for r in replicas_of(store, "k")}
        assert len(versions) == 1

    def test_symmetric_conflict_aborts_both_but_never_deadlocks(self, simple_store):
        # Two TMs that are themselves replicas each grab their local lock
        # first: neither can prepare everywhere, both abort promptly (the
        # NO-vote rule trades livelock risk for deadlock freedom).
        store = simple_store
        store.preload(["k"])
        t = TransactionalStore(store, config=TxnConfig(**FAST))
        r_a, r_b = replicas_of(store, "k")[:2]
        outcomes = []

        def writer(coord):
            txn = t.begin(coordinator=coord)
            txn.write("k", 100)
            txn.commit(outcomes.append)

        store.sim.schedule(0.0, writer, r_a)
        store.sim.schedule(0.0, writer, r_b)
        settle(store)
        assert [o.status for o in outcomes] == ["aborted", "aborted"]
        assert t.in_doubt_now() == 0  # locks fully released, nothing stuck
        assert all(not p.locks for p in t.participants)

    @staticmethod
    def _stale_read_setup(store, tstore):
        """Choreograph a provably stale transactional read of ``k``.

        A plain write commits at level ONE while two replicas are down (the
        oracle's committed bar rises, only replica ``a`` applies); the
        transaction then reads from a lagging replica. Returns the txn,
        its collected outcomes list, and a callable finishing the commit.
        """
        store.preload(["k"])
        a, b, c = replicas_of(store, "k")
        outcomes = []

        def write_with_lag():
            store.nodes[b].crash()
            store.nodes[c].crash()
            store.write("k", 1, coordinator=a)

        def stale_read_then_commit():
            # Forget the hints (the lag must persist past recovery) and
            # swap which replicas are visible: the read can only hit b/c.
            store.hints.drain(b)
            store.hints.drain(c)
            store.nodes[a].crash()
            store.nodes[b].recover()
            store.nodes[c].recover()
            txn = tstore.begin(coordinator=b)
            txn.read("k")
            txn.write("k", 100)
            # Restore a before prepare so the full replica set can vote.
            store.sim.schedule(0.005, store.nodes[a].recover)
            store.sim.schedule(0.01, txn.commit, outcomes.append)
            return txn

        store.sim.schedule(0.0, write_with_lag)
        txns = []
        store.sim.schedule(0.05, lambda: txns.append(stale_read_then_commit()))
        return txns, outcomes

    def test_stale_validation_aborts_read_modify_write(self, simple_store):
        store = simple_store
        t = TransactionalStore(store, config=TxnConfig(**FAST))
        txns, outcomes = self._stale_read_setup(store, t)
        settle(store)
        assert txns[0].stale_reads == 1  # the choreography produced staleness
        # Replica `a` holds the newer committed version the transaction
        # never saw: validation votes NO and the commit aborts.
        assert [o.status for o in outcomes] == ["aborted"]
        assert t.aborts == {"conflict": 1}
        assert t.lost_updates == 0

    def test_validation_off_turns_stale_read_into_lost_update(self, simple_store):
        store = simple_store
        t = TransactionalStore(store, config=TxnConfig(validate_reads=False, **FAST))
        txns, outcomes = self._stale_read_setup(store, t)
        settle(store)
        assert txns[0].stale_reads == 1
        assert [o.status for o in outcomes] == ["committed"]
        assert t.lost_updates == 1  # the unseen plain write was destroyed

    def test_fresh_read_race_is_not_a_lost_update(self, simple_store):
        # A write that lands *after* a fresh read is a write-write race,
        # not a staleness anomaly: the grading must not count it.
        store = simple_store
        store.preload(["k"])
        t = TransactionalStore(store, config=TxnConfig(validate_reads=False, **FAST))
        outcomes = []

        def rmw():
            txn = t.begin()
            txn.read("k")
            store.sim.schedule(0.002, store.write, "k", 3, None)
            txn.write("k", 100)
            store.sim.schedule(0.02, txn.commit, outcomes.append)

        store.sim.schedule(0.0, rmw)
        settle(store)
        assert [o.status for o in outcomes] == ["committed"]
        assert t.lost_updates == 0

    def test_blind_writes_are_not_lost_updates(self, simple_store):
        store = simple_store
        store.preload(["k"])
        t = TransactionalStore(store, config=TxnConfig(validate_reads=False, **FAST))

        def blind():
            txn = t.begin()
            txn.write("k", 100)
            txn.commit()

        store.sim.schedule(0.0, store.write, "k", 3, None)
        store.sim.schedule(0.01, blind)
        settle(store)
        assert t.commits == 1 and t.lost_updates == 0


class TestFailureModes:
    def test_total_outage_aborts_unavailable(self, simple_store):
        store = simple_store
        for node in store.nodes:
            node.crash()
        t = TransactionalStore(store, config=TxnConfig(**FAST))
        outcomes = []
        txn = t.begin()
        txn.write("a", 100)

        store.sim.schedule(0.0, txn.commit, outcomes.append)
        settle(store)
        assert outcomes[0].status == "aborted"
        assert outcomes[0].reason == "unavailable"

    def test_down_replica_times_out_the_round(self, simple_store):
        store = simple_store
        t = TransactionalStore(store, config=TxnConfig(**FAST))
        victim = replicas_of(store, "a")[1]
        store.on_node_crash(victim)
        outcomes = []

        def go():
            txn = t.begin(coordinator=0)
            txn.write("a", 100)
            txn.commit(outcomes.append)

        store.sim.schedule(0.0, go)
        settle(store)
        assert outcomes[0].status == "aborted"
        assert outcomes[0].reason == "timeout"
        # Nothing was applied anywhere -- the transaction is fully absent.
        for r in replicas_of(store, "a"):
            assert "a" not in store.nodes[r].data

    def test_failed_read_dooms_the_transaction(self, simple_store):
        store = simple_store
        store.preload(["a"])
        for node in store.nodes:
            node.crash()
        t = TransactionalStore(store, config=TxnConfig(**FAST))
        outcomes = []
        txn = t.begin()
        txn.read("a")
        txn.write("a", 100)
        store.sim.schedule(0.0, txn.commit, outcomes.append)
        settle(store)
        assert outcomes[0].status == "aborted"
        assert outcomes[0].reason == "read-failed"


class TestObserverTxnCounts:
    def test_observer_counts_txn_outcomes(self, simple_store):
        store = simple_store
        t = TransactionalStore(store, config=TxnConfig(**FAST))
        obs = RunObserver(store, ObsConfig(trace=False))

        def writer():
            txn = t.begin(coordinator=1)
            txn.write("k", 100)
            txn.commit()

        store.sim.schedule(0.0, writer)
        store.sim.schedule(0.0001, writer)
        settle(store)
        assert (obs.txn_commits, obs.txn_aborts, obs.txn_in_doubt) == (1, 1, 0)
        obs.finish()
        last = [r for r in obs.timeline_records() if r["type"] == "sample"][-1]
        assert (last["txn_commits"], last["txn_aborts"]) == (1, 1)

    def test_in_doubt_resolution_reaches_listeners(self, simple_store):
        # TM crashes mid-round and only recovers *after* the client's
        # timeout: the client hears "in-doubt", the recovery pass later
        # resolves it, and both the store counters and the observer must
        # converge on the final verdict (nothing stays in-doubt forever).
        store = simple_store
        t = TransactionalStore(store, config=TxnConfig(**FAST))
        obs = RunObserver(store, ObsConfig(trace=False))
        outcomes = []

        def go():
            txn = t.begin(coordinator=1)
            txn.write("a", 100)
            txn.commit(outcomes.append)

        store.sim.schedule(0.0, go)
        store.sim.schedule_at(0.0007, store.on_node_crash, 1)  # votes in flight
        store.sim.schedule_at(0.3, store.on_node_recover, 1)  # after client_timeout
        settle(store)

        assert [o.status for o in outcomes] == ["in-doubt"]
        assert t.in_doubt_client == 1
        assert t.in_doubt_resolved == 1  # recovery settled it afterwards
        assert t.in_doubt_now() == 0
        assert obs.txn_in_doubt == 0  # the late verdict moved the count
        assert obs.txn_commits + obs.txn_aborts == 1
        # the client-side in-doubt verdict showed in a sample before that
        in_doubt = [
            r["txn_in_doubt"] for r in obs.timeline_records() if r["type"] == "sample"
        ]
        assert 1 in in_doubt and in_doubt[-1] == 0

    def test_reset_metrics_zeroes_txn_surfaces(self, simple_store):
        store = simple_store
        t = TransactionalStore(store, config=TxnConfig(**FAST))

        def writer():
            txn = t.begin()
            txn.write("k", 100)
            txn.commit()

        store.sim.schedule(0.0, writer)
        settle(store)
        assert t.commits == 1
        t.reset_metrics()
        assert t.commits == 0 and t.abort_count() == 0
        assert t.commit_latency.n == 0


class TestTxnRunner:
    def test_runner_produces_txn_report(self, simple_store):
        runner = TxnRunner(
            TransactionalStore(simple_store, config=TxnConfig(**FAST)),
            bank_transfer_mix(record_count=100),
            n_clients=4,
            txns_total=120,
            seed=3,
            warmup_fraction=0.25,
        )
        report = runner.run()
        assert report.txn is not None
        assert report.txn["txns"] > 0
        assert report.txn["commits"] > 0
        assert report.txn["commit_latency_mean_ms"] > 0
        assert report.ops_completed > 0
        assert report.workload == "bank-transfer"

    def test_runner_validates_args(self, simple_store):
        t = TransactionalStore(simple_store)
        spec = bank_transfer_mix(record_count=100)
        with pytest.raises(ConfigError):
            TxnRunner(t, spec, n_clients=0)
        with pytest.raises(ConfigError):
            TxnRunner(t, spec, n_clients=8, txns_total=4)
        with pytest.raises(ConfigError):
            TxnRunner(t, spec, warmup_fraction=1.0)

    def test_identical_runs_are_deterministic(self):
        from repro.cluster.replication import SimpleStrategy
        from repro.cluster.store import StoreConfig
        from repro.net.latency import FixedLatency
        from repro.net.topology import Datacenter, LinkClass, Topology
        from repro.simcore.simulator import Simulator

        def one_run():
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
            t = TransactionalStore(store, config=TxnConfig(**FAST))
            report = TxnRunner(
                t, bank_transfer_mix(record_count=100),
                n_clients=4, txns_total=100, seed=3,
            ).run()
            return report.txn, report.stale_rate, report.throughput

        assert one_run() == one_run()


class TestTxnScenarios:
    def test_registered_and_tagged(self):
        from repro.experiments import scenarios

        for name in ("txn-shootout", "txn-crash-storm", "txn-geo-2pc"):
            spec = scenarios.get(name)
            assert "txn" in spec.tags
            assert spec.build(spec.resolve_params()).txn_workload is not None

    def test_shootout_metrics_include_txn_block(self):
        from repro.experiments import scenarios

        run = scenarios.get("txn-shootout").run(seed=3, ops=60)
        m = run.metrics()
        assert m["txn"]["txns"] > 0
        assert "commit_latency_p99_ms" in m["txn"]
        assert m["policy"].startswith("harmony")

    def test_crash_storm_recovers_in_doubt(self):
        from repro.experiments import scenarios

        # Storm compressed so the tiny run still lives through every crash
        # and recovery; the in-doubt machinery must resolve everything.
        run = scenarios.get("txn-crash-storm").run(
            seed=3,
            ops=150,
            overrides={"crash_start": 0.05, "crash_interval": 0.1, "downtime": 0.2},
        )
        t = run.report.txn
        assert t["commits"] > 0
        assert t["commits"] + sum(t["aborts"].values()) == t["txns"]

    def test_message_bill_counts_every_protocol_send(self, monkeypatch):
        import repro
        from repro.net.transport import Network
        from repro.txn.participant import TxnParticipant
        from repro.txn.tm import TransactionManager

        # The commit round's send sites bump the bill themselves instead of
        # going through TransactionalStore.send: count what really reaches
        # the fabric, by the handler each message is addressed to.
        seen = {}
        real_send = Network.send

        def send(self, src, dst, nbytes, deliver, *args):
            role = getattr(deliver, "__self__", None)
            if isinstance(role, (TxnParticipant, TransactionManager)):
                n, size = seen.get(deliver.__name__, (0, 0))
                seen[deliver.__name__] = (n + 1, size + nbytes)
            return real_send(self, src, dst, nbytes, deliver, *args)

        monkeypatch.setattr(Network, "send", send)
        out = repro.run(
            repro.RunSpec(
                platform=repro.storm_txn_platform(),
                policy=repro.named_policy_factory("quorum"),
                txn_workload=read_modify_write_mix(record_count=400),
                ops=300, clients=12, seed=3, warmup_fraction=0.0,
                commit_protocol="3pc",
                failure_script=lambda injector: injector.crash_storm(
                    [0, 2, 5, 7], start=0.5, interval=0.5, downtime=1.5
                ),
                txn_config=TxnConfig(
                    prepare_timeout=0.5, client_timeout=2.0, retry_interval=0.25,
                    status_interval=0.1, status_interval_max=0.5,
                    termination_timeout=0.25,
                ),
            )
        )
        # Every message kind flowed: the round, its 3PC barrier, the polls
        # and the termination protocol.
        assert set(seen) == {
            "on_prepare", "on_vote", "on_precommit", "on_precommit_ack",
            "on_decision", "on_ack", "on_status_query", "on_tm_working",
            "on_termination_query", "on_termination_reply",
        }
        t = out.report.txn
        assert t["msgs"] == sum(n for n, _ in seen.values())
        assert t["msg_bytes"] == sum(size for _, size in seen.values())

    def test_sweep_parallel_matches_serial_byte_identical(self):
        from repro.experiments.sweep import SweepRunner, plan_sweep

        # txn-crash-storm is in the plan deliberately: its runs exercise
        # WAL recovery, so this asserts recovery *ordering* determinism too.
        plan = plan_sweep(
            scenario_names=["txn-shootout", "txn-geo-2pc", "txn-crash-storm"],
            grid={
                "tolerance": [0.2, 0.4],
                "crash_start": [0.05],
                "crash_interval": [0.1],
                "downtime": [0.2],
            },
            root_seed=7,
            ops=60,
        )
        serial = SweepRunner(jobs=1).run(plan)
        parallel = SweepRunner(jobs=2).run(plan)
        assert serial.to_json() == parallel.to_json()
        assert serial.to_csv() == parallel.to_csv()
        assert all("txn" in row for row in serial.rows)

    def test_protocol_shootout_sweep_byte_identical_across_jobs(self):
        from repro.experiments.sweep import SweepRunner, plan_sweep

        # The capstone table: all three commit protocols through the same
        # parameter-scripted crash storm, byte-identical whatever --jobs.
        plan = plan_sweep(
            scenario_names=["txn-protocol-shootout"],
            grid={
                "commit_protocol": ["2pc", "2pc-coop", "3pc"],
                "crash_start": [0.05],
                "crash_interval": [0.1],
                "downtime": [0.2],
            },
            root_seed=7,
            ops=60,
        )
        serial = SweepRunner(jobs=1).run(plan)
        parallel = SweepRunner(jobs=2).run(plan)
        assert serial.to_json() == parallel.to_json()
        assert serial.to_csv() == parallel.to_csv()
        assert sorted(r["txn"]["commit_protocol"] for r in serial.rows) == [
            "2pc", "2pc-coop", "3pc",
        ]
        # Every protocol's row carries the shootout metrics.
        for row in serial.rows:
            t = row["txn"]
            assert t["msgs"] > 0 and t["msg_bytes"] > 0
            assert t["blocked_time"] >= 0.0
        header = serial.to_csv().splitlines()[0]
        for col in (
            "txn_commit_protocol",
            "txn_blocked_time",
            "txn_msgs",
            "txn_msg_bytes",
        ):
            assert col in header
