"""Result checks on the hot paths that no ``bench/`` workload runs on its own.

Each class drives one code path at the shape a timing harness once drove it
(the lazy-cancel timeout pattern, open-loop pre-scheduling, ring churn, the
cohort runner at 10^6 clients, the rebalance storm, 2PC bank transfers, 3PC
under a rolling crash storm, the densest observer) and checks what the path
must produce, at a size that runs in well under a second.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.cluster.partitioner import TOKEN_SPACE
from repro.cluster.replication import SimpleStrategy
from repro.cluster.ring import TokenRing
from repro.cluster.store import ReplicatedStore, StoreConfig
from repro.experiments import scenarios
from repro.experiments.platforms import ec2_harmony_platform, storm_txn_platform
from repro.experiments.runner import harmony_factory, named_policy_factory
from repro.facade import RunSpec, run
from repro.net.topology import Datacenter, Topology
from repro.obs.recorder import ObsConfig
from repro.obs.report import validate_timeline
from repro.policy import StaticPolicy
from repro.simcore.simulator import Simulator
from repro.txn.api import TxnConfig
from repro.workload.client import OpenLoopSource, WorkloadRunner
from repro.workload.workloads import WORKLOADS, bank_transfer_mix, read_modify_write_mix


def _queued_times(sim: Simulator) -> list:
    """Firing times of every queued entry, in either tier of the queue."""
    return [entry[0] for entry in sim._heap + sim._far]


def _small_store(seed: int = 11) -> ReplicatedStore:
    """One DC of four nodes, RF=3, default latencies, 10 % read repair."""
    return ReplicatedStore(
        Simulator(),
        Topology([Datacenter("dc0", "region0")], [4]),
        strategy=SimpleStrategy(rf=3),
        config=StoreConfig(seed=seed, read_repair_chance=0.1),
    )


class TestTimeoutPairs:
    """Op + timeout pairs where the op wins: most timers are cancelled."""

    PAIRS = 5000

    def _schedule(self, sim, cancel_every=1):
        fired = []
        for i in range(self.PAIRS):
            t = i * 0.001
            timeout = sim.schedule_at(t + 5.0, fired.append, i)
            if i % cancel_every == 0:
                sim.schedule_at(t + 0.0005, timeout.cancel)
            else:
                sim.schedule_at(t + 0.0005, lambda: None)
        return fired

    def test_cancelled_timeouts_neither_fire_nor_move_the_clock(self):
        sim = Simulator()
        fired = self._schedule(sim)
        sim.run()
        assert fired == []
        assert sim.events_processed == self.PAIRS
        assert sim.now == pytest.approx((self.PAIRS - 1) * 0.001 + 0.0005)
        assert sim.pending() == 0 and sim._heap == []

    def test_pending_counts_only_live_timers_mid_run(self):
        sim = Simulator()
        self._schedule(sim)
        assert sim.pending() == 2 * self.PAIRS
        sim.run(until=1.0)
        done = sim.events_processed
        # each op that ran took its own timeout with it
        assert done == 1000
        assert sim.pending() == 2 * (self.PAIRS - done)

    def test_uncancelled_timeouts_fire_at_their_deadline(self):
        sim = Simulator()
        fired = self._schedule(sim, cancel_every=2)
        sim.run()
        assert fired == list(range(1, self.PAIRS, 2))
        assert sim.events_processed == self.PAIRS + self.PAIRS // 2
        assert sim.now == pytest.approx((self.PAIRS - 1) * 0.001 + 5.0)


class TestOpenLoopSchedule:
    """Open-loop arrivals are drawn and scheduled in one batch at start."""

    def _source(self, store, ops, rate=2000.0, seed=11):
        return OpenLoopSource(
            store,
            WORKLOADS["A"].scaled(1000, name="openloop"),
            StaticPolicy(1, 1, name="one"),
            rate=rate,
            ops=ops,
            rng=np.random.default_rng(seed),
        )

    def test_start_preschedules_every_arrival_once(self):
        store = _small_store()
        source = self._source(store, ops=20_000)
        source.start()
        assert store.sim.pending() == 20_000
        assert source.remaining == 0
        source.start()
        assert store.sim.pending() == 20_000

    def test_batched_gaps_equal_scalar_draws(self):
        store = _small_store()
        source = self._source(store, ops=2000)
        twin = np.random.default_rng()
        twin.bit_generator.state = source.rng.bit_generator.state
        source.start()
        expected, t = [], 0.0
        for _ in range(2000):
            t += float(twin.exponential(1.0 / 2000.0))
            expected.append(t)
        assert sorted(_queued_times(store.sim)) == expected

    def test_offered_rate_holds_at_scale(self):
        store = _small_store()
        self._source(store, ops=20_000).start()
        times = sorted(_queued_times(store.sim))
        # 20 000 Poisson arrivals at 2000/s span 10 s; the sd of the sum is 0.07 s
        assert times[-1] == pytest.approx(10.0, rel=0.03)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_arrivals_start_from_the_current_clock(self):
        store = _small_store()
        store.sim.run(until=3.0)
        source = self._source(store, ops=500)
        source.start()
        assert min(_queued_times(store.sim)) > 3.0
        store.sim.run()
        assert store.ops_completed() == 500


class TestRingChurn:
    """Alternating joins and drains on a 24-node, 32-vnode ring."""

    CHANGES = 60

    def _churn(self):
        ring = TokenRing(24, vnodes=32)
        next_id = 24
        for i in range(self.CHANGES):
            before = ring.ownership_fractions()
            if i % 2 == 0:
                node, diff = next_id, ring.add_node(next_id)
                next_id += 1
            else:
                node = ring.members[0]
                diff = ring.remove_node(node)
            yield ring, node, i % 2 == 0, before, diff

    def test_each_diff_is_exactly_the_joiners_or_leavers_share(self):
        for ring, node, joined, before, diff in self._churn():
            moved = sum(m.width() for m in diff) / TOKEN_SPACE
            if joined:
                assert all(m.new_owner == node for m in diff)
                assert moved == pytest.approx(ring.ownership_fractions()[node], rel=1e-9)
            else:
                assert all(m.old_owner == node for m in diff)
                assert moved == pytest.approx(before[node], rel=1e-9)

    def test_fractions_are_refreshed_and_sum_to_one_after_every_change(self):
        gone = set()
        for ring, node, joined, before, _diff in self._churn():
            if not joined:
                gone.add(node)
            after = ring.ownership_fractions()
            assert after is not before
            assert after.sum() == pytest.approx(1.0, abs=1e-12)
            assert all(after[g] == 0.0 for g in gone)
            assert ring.n_nodes == 24 + joined

    def test_churned_ring_equals_a_ring_pruned_to_its_members(self):
        for ring, *_ in self._churn():
            pass
        pruned = TokenRing(max(ring.members) + 1, vnodes=32)
        for node in set(pruned.members) - set(ring.members):
            pruned.remove_node(node)
        assert ring._tokens == pruned._tokens
        assert ring._owners == pruned._owners


class TestCohortMillion:
    """The cohort runner at its 10^6-client ceiling, paced, one DC."""

    def _runner(self, clients):
        return WorkloadRunner(
            _small_store(),
            WORKLOADS["A"].scaled(800, name="cohort"),
            policy=StaticPolicy(1, 2, name="one-two"),
            n_clients=clients,
            ops_total=4000,
            seed=11,
            target_throughput=8000.0,
            client_mode="cohort",
        )

    def test_a_million_members_cost_no_setup_memory(self):
        tracemalloc.start()
        try:
            self._runner(1_000_000)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one object per member would be tens of megabytes
        assert peak < 256 * 1024

    def test_paced_traffic_does_not_depend_on_member_count(self):
        big = self._runner(1_000_000).run()
        small = self._runner(100).run()
        assert big.n_clients == 1_000_000
        assert [c["members"] for c in big.cohorts] == [1_000_000]
        assert big.ops_completed == 4000
        assert big.throughput == pytest.approx(8000.0, rel=0.02)

        def traffic(rep):
            cohorts = [dict(c, members=None) for c in rep.cohorts]
            return dataclasses.replace(rep, n_clients=0, cohorts=cohorts)

        assert traffic(big) == traffic(small)


class TestRebalanceStorm:
    """``elastic-rebalance-storm``: scripted joins under foreground traffic."""

    @pytest.fixture(scope="class")
    def storm(self):
        return scenarios.get("elastic-rebalance-storm").run(seed=11, ops=1500)

    def test_every_migration_finishes(self, storm):
        e = storm.report.elastic
        assert e["scale_outs"] >= 1 and e["keys_streamed"] > 0
        assert e["migrations_completed"] == e["migrations_started"]
        assert e["pending_final"] == 0
        assert e["nodes_final"] - e["nodes_initial"] == e["scale_outs"] - e["scale_ins"]
        assert len(e["events"]) == e["scale_outs"] + e["scale_ins"]

    def test_foreground_traffic_is_all_served(self, storm):
        report = storm.report
        assert report.ops_completed == 1200  # the 80 % after warm-up
        assert sum(report.failures.values()) == 0


_STORM_CONFIG = TxnConfig(
    prepare_timeout=0.5,
    client_timeout=2.0,
    retry_interval=0.25,
    status_interval=0.1,
    status_backoff=2.0,
    status_interval_max=0.5,
    termination_after=2,
    termination_timeout=0.25,
)


def _rolling_crashes(injector) -> None:
    injector.crash_storm([0, 2, 5, 7], start=0.5, interval=0.5, downtime=1.5)


def _check_accounting(txn) -> None:
    assert txn["txns"] == 320  # the 80 % of 400 after warm-up
    assert txn["commits"] > 0
    assert txn["commits"] + sum(txn["aborts"].values()) == txn["txns"]
    assert txn["lost_updates"] == 0 and txn["stale_txn_reads"] == 0


class TestTwoPhaseBank:
    """Bank transfers under 2PC across two EC2 availability zones."""

    @pytest.fixture(scope="class")
    def txn(self):
        return run(
            RunSpec(
                platform=ec2_harmony_platform(),
                policy=named_policy_factory("quorum"),
                txn_workload=bank_transfer_mix(record_count=1000),
                ops=400,
                clients=12,
                seed=11,
            )
        ).report.txn

    def test_every_transfer_commits_or_aborts_once(self, txn):
        assert txn["commit_protocol"] == "2pc"
        _check_accounting(txn)

    def test_no_failure_means_no_recovery_work(self, txn):
        assert txn["msgs"] > 0 and txn["wal_records"] > 0
        for key in ("in_doubt_client", "in_doubt_recovered", "tm_recovery_resolved",
                    "termination_resolved"):
            assert txn[key] == 0, key


class TestThreePhaseStorm:
    """3PC read-modify-writes while four nodes crash and restart in turn."""

    @pytest.fixture(scope="class")
    def txn(self):
        return run(
            RunSpec(
                platform=storm_txn_platform(),
                policy=named_policy_factory("quorum"),
                txn_workload=read_modify_write_mix(record_count=400),
                ops=400,
                clients=12,
                seed=11,
                failure_script=_rolling_crashes,
                txn_config=_STORM_CONFIG,
                commit_protocol="3pc",
            )
        ).report.txn

    def test_every_transaction_commits_or_aborts_once(self, txn):
        assert txn["commit_protocol"] == "3pc"
        _check_accounting(txn)

    def test_the_storm_drives_termination_and_recovery(self, txn):
        assert txn["termination_resolved"] > 0
        assert txn["in_doubt_recovered"] > 0
        assert txn["tm_recovery_resolved"] > 0
        assert txn["aborts"].get("tm-crash", 0) > 0


class TestDenseObserver:
    """The geo Harmony run with tracing, dense sampling and the oracles on."""

    def _run(self, obs):
        return run(
            RunSpec(
                platform=ec2_harmony_platform(),
                policy=harmony_factory(0.4),
                ops=600,
                seed=11,
                obs=obs,
            )
        )

    @pytest.fixture(scope="class")
    def observed(self):
        return self._run(ObsConfig(sample_interval=0.05, trace=True, trace_sample_every=4))

    def test_observer_changes_no_result(self, observed):
        assert observed.report == self._run(None).report

    def test_timeline_and_trace_are_complete(self, observed):
        records = observed.obs.timeline_records()
        assert validate_timeline(records) == []
        assert any(r["type"] == "sample" for r in records)
        header = records[0]
        anomalies = [r for r in records if r["type"] == "anomaly"]
        assert sum(header["anomalies"].values()) == len(anomalies)
        ops = [e for e in observed.obs.tracer.to_chrome()["traceEvents"] if e["cat"] == "op"]
        begins = sorted(e["id"] for e in ops if e["ph"] == "b")
        assert begins and begins == sorted(e["id"] for e in ops if e["ph"] == "e")
