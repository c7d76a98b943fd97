"""Placement by ring arc: the shared per-arc record against per-key references.

Replica placement is a property of the vnode arc a key hashes into, so the
strategies keep one :class:`Placement` per ring slot and every key of the
arc points at it. These tests hold that table to the per-key definitions it
replaced: a fresh, unmemoized walk from the key's own token, and the
per-key load loop.
"""

from __future__ import annotations

import tracemalloc
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro.cluster.partitioner import token_of
from repro.cluster.replication import NetworkTopologyStrategy, SimpleStrategy
from repro.cluster.ring import TokenRing
from repro.cluster.store import StoreConfig
from repro.cluster.versions import Version
from repro.common.errors import ConfigError, ConsistencyError
from repro.net.topology import Datacenter, Topology
from repro.simcore.simulator import Simulator
from repro.txn.api import TransactionalStore, TxnConfig
from repro.workload.workloads import (
    TXN_WORKLOADS, KeyRange, WorkloadSpec, heavy_read_update,
)
from tests.conftest import sim_store


def reference_replicas(strategy, walk, topology):
    """The placement definition, applied to one clockwise walk, no memo."""
    if isinstance(strategy, SimpleStrategy):
        return list(islice(walk, strategy.rf_total))
    remaining = dict(strategy.rf_per_dc)
    out = []
    for node in walk:
        dc = topology.dc_of(node)
        if remaining.get(dc, 0) > 0:
            out.append(node)
            remaining[dc] -= 1
        if len(out) == strategy.rf_total:
            break
    return out


def reference_for_key(strategy, key, ring, topology):
    return reference_replicas(strategy, ring.walk(token_of(key)), topology)


def census(replicas, topology):
    out = {}
    for r in replicas:
        out[topology.dc_of(r)] = out.get(topology.dc_of(r), 0) + 1
    return out


def make_topology(nodes_per_dc):
    return Topology(
        [Datacenter(f"dc{i}", f"r{i}") for i in range(len(nodes_per_dc))],
        list(nodes_per_dc),
    )


@st.composite
def deployments(draw):
    """``(topology, ring, strategy)`` with a placement the cluster can hold."""
    nodes_per_dc = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    topology = make_topology(nodes_per_dc)
    ring = TokenRing(topology.n_nodes, vnodes=draw(st.integers(1, 8)))
    if draw(st.booleans()):
        strategy = SimpleStrategy(rf=draw(st.integers(1, topology.n_nodes)))
    else:
        quotas = {dc: draw(st.integers(0, n)) for dc, n in enumerate(nodes_per_dc)}
        assume(any(quotas.values()))
        strategy = NetworkTopologyStrategy(quotas)
    return topology, ring, strategy


KEY_LISTS = st.lists(st.text(max_size=12), min_size=1, max_size=30)


class TestArcLookup:
    @given(deployments(), KEY_LISTS)
    @settings(max_examples=150, deadline=None)
    def test_memoized_placement_equals_a_fresh_walk(self, deployment, keys):
        topology, ring, strategy = deployment
        for key in keys + keys:  # second pass reads the arc table
            got = strategy.replicas(key, ring, topology)
            assert got == reference_for_key(strategy, key, ring, topology), key
            assert strategy.placement(key, ring, topology)[2] == census(got, topology)
        assert len(strategy._arcs) <= len(ring._tokens)

    @given(deployments(), KEY_LISTS, st.data())
    @settings(max_examples=100, deadline=None)
    def test_equal_again_after_membership_changes(self, deployment, keys, data):
        topology, ring, strategy = deployment
        for key in keys:
            strategy.replicas(key, ring, topology)  # fill the table first
        # join one node, then (where the placement still fits) drop one
        joined = topology.add_node(data.draw(st.integers(0, len(topology.datacenters) - 1)))
        ring.add_node(joined)
        strategy.clear_cache()
        for key in keys:
            assert strategy.replicas(key, ring, topology) == reference_for_key(
                strategy, key, ring, topology
            ), key
        leaver = data.draw(st.sampled_from(ring.members))
        survivors = [m for m in ring.members if m != leaver]
        try:
            strategy.validate_membership(survivors, topology)
        except ConsistencyError:
            return
        ring.remove_node(leaver)
        strategy.clear_cache()
        for key in keys:
            got = strategy.replicas(key, ring, topology)
            assert leaver not in got
            assert got == reference_for_key(strategy, key, ring, topology), key

    def test_token_on_a_vnode_token_belongs_to_the_next_vnode(self):
        ring = TokenRing(5, vnodes=4)
        n = len(ring._tokens)
        for i, token in enumerate(ring._tokens):
            nxt = ring._owners[(i + 1) % n]
            assert ring.primary_for_token(token) == nxt
            assert next(ring.walk(token)) == nxt
            assert next(ring.walk_from((i + 1) % n)) == nxt
            # one below the vnode token still belongs to vnode i
            assert ring.primary_for_token(token - 1) == ring._owners[i]

    def test_slot_of_matches_the_walk_start(self):
        ring = TokenRing(6, vnodes=8)
        for i in range(200):
            key = f"user{i}"
            slot = ring.slot_of(key)
            assert 0 <= slot < len(ring._tokens)
            assert list(ring.walk_from(slot)) == list(ring.walk(token_of(key)))
            assert ring._owners[slot] == ring.primary_for_token(token_of(key))

    def test_errors_raise_on_the_first_lookup(self):
        ring = TokenRing(3)
        topology = make_topology([2, 1])
        with pytest.raises(ConsistencyError, match="exceeds cluster size"):
            SimpleStrategy(rf=4).replicas("k", ring, topology)
        with pytest.raises(ConsistencyError, match="cannot hold"):
            NetworkTopologyStrategy({0: 3}).replicas("k", ring, topology)
        with pytest.raises(ConfigError, match="unknown datacenter"):
            NetworkTopologyStrategy({0: 1, 5: 1}).replicas("k", ring, topology)
        # a failed lookup leaves nothing behind to answer the next one
        failing = NetworkTopologyStrategy({0: 3})
        for _ in range(2):
            with pytest.raises(ConsistencyError):
                failing.replicas("k", ring, topology)
        assert failing._arcs == {}


# -- the store's records -------------------------------------------------------


def geo_store():
    """Two datacenters (4 + 3 nodes), two replicas in each."""
    return sim_store(
        Simulator(),
        make_topology([4, 3]),
        strategy=NetworkTopologyStrategy({0: 2, 1: 2}),
        config=StoreConfig(seed=4, read_repair_chance=0.0),
    )


KEYS = [f"user{i}" for i in range(300)]


def assert_records_match_fresh_walks(store):
    """Every cached record still says what an uncached resolve would say."""
    strategy, ring, topology = store.strategy, store.ring, store.topology
    assert strategy._arcs, "the run resolved no placement at all"
    for slot, record in strategy._arcs.items():
        replicas, extra, by_dc = record
        assert replicas == reference_replicas(strategy, ring.walk_from(slot), topology)
        assert extra == ()
        assert by_dc == census(replicas, topology)
    for key, record in store._placement_cache.items():
        fresh = reference_for_key(strategy, key, ring, topology)
        pending = store.rebalancer is not None and (
            store.rebalancer.pending_old_replicas(key) is not None
        )
        if not pending:
            assert record is strategy.placement(key, ring, topology), key
            assert record[0] == fresh, key


class TestSharedRecords:
    def test_keys_of_one_arc_share_one_record(self):
        store = geo_store()
        store.preload(KEYS)
        by_slot = {}
        for key in KEYS:
            by_slot.setdefault(store.ring.slot_of(key), []).append(key)
        assert any(len(keys) > 1 for keys in by_slot.values())
        for keys in by_slot.values():
            first = store.replica_info(keys[0])
            assert all(store.replica_info(k) is first for k in keys)
        assert len(store.strategy._arcs) == len(by_slot)

    def test_membership_changes_rebuild_the_table(self):
        store = geo_store()
        attach_rebalancer(store)
        store.preload(KEYS)
        before = {k: list(store.replica_sets(k)[0]) for k in KEYS}
        joined = store.bootstrap_node(1)
        drain(store)
        for key in KEYS:
            assert store.replica_sets(key)[0] == reference_for_key(
                store.strategy, key, store.ring, store.topology
            ), key
        assert any(joined in store.replica_sets(k)[0] for k in KEYS)
        store.decommission_node(0)
        drain(store)
        for key in KEYS:
            replicas, extra = store.replica_sets(key)
            assert 0 not in replicas and extra == ()
            assert replicas == reference_for_key(
                store.strategy, key, store.ring, store.topology
            ), key
        assert any(before[k] != store.replica_sets(k)[0] for k in KEYS)
        assert_records_match_fresh_walks(store)

    def test_a_pending_key_owns_a_private_record(self):
        store = geo_store()
        attach_rebalancer(store)
        store.preload(KEYS)
        old = {k: list(store.replica_sets(k)[0]) for k in KEYS}
        joined = store.bootstrap_node(0)
        pending = [k for k in KEYS if store.rebalancer.pending_old_replicas(k)]
        assert pending
        for key in pending:
            record = store.replica_info(key)
            shared = store.strategy.placement(key, store.ring, store.topology)
            assert record is not shared
            assert record[0] == old[key] and record[1] == (joined,)
            assert record[2] == census(old[key], store.topology)
            assert joined in shared[0] and shared[1] == ()
        store.sim.run(until=60.0)
        assert not store.rebalancer.active
        for key in pending:  # handed off: back on the arc's shared record
            assert store.replica_info(key) is store.strategy.placement(
                key, store.ring, store.topology
            )

    def test_no_caller_mutates_a_record_through_an_elastic_run(self):
        def churn(reb):
            sim = reb.store.sim

            def drain():
                candidate = reb.decommission_candidate()
                if candidate is not None:
                    reb.decommission_node(candidate)

            sim.schedule_at(0.03, reb.bootstrap_node, 0)
            sim.schedule_at(0.09, reb.bootstrap_node, 0)
            sim.schedule_at(0.15, drain)
            sim.schedule_at(0.21, drain)

        out = repro.run(repro.RunSpec(
            platform=repro.single_dc_platform(),
            policy=repro.harmony_factory(0.3),
            workload=heavy_read_update(record_count=800),
            elastic=repro.ElasticSpec(
                script=churn,
                rebalance=repro.RebalanceConfig(
                    pump_interval=0.005, attempt_timeout=0.1
                ),
            ),
            ops=3000, clients=16, seed=3,
        ))
        block = out.report.elastic
        assert block["scale_outs"] == 2 and block["scale_ins"] == 2
        assert block["keys_streamed"] > 0 and block["pending_final"] == 0
        assert_records_match_fresh_walks(out.store)


# -- read routing ----------------------------------------------------------------


class TestReadRouting:
    """Liveness is read per operation, never stored on the shared record."""

    def test_a_crash_between_two_reads_reroutes_the_second(self):
        store = geo_store()
        coord = store.coordinators[0]
        replicas, _, by_dc = store.replica_info("user0")
        requirement = coord._requirement(2, replicas, by_dc)
        first = coord._select_read_targets(replicas, requirement)
        assert len(first) == 2
        store.nodes[first[0]].crash()
        second = coord._select_read_targets(replicas, requirement)
        assert first[0] not in second and len(second) == 2
        store.nodes[first[0]].recover()
        assert coord._select_read_targets(replicas, requirement) == first
        # the targets handed out are a fresh list: callers cannot reach the record
        first.clear()
        assert len(replicas) == 4 and store.replica_info("user0")[0] is replicas

    def test_too_few_live_replicas_is_unavailable(self):
        store = geo_store()
        store.preload(["user0"])
        replicas = store.replica_sets("user0")[0]
        results = []
        store.read("user0", 4, results.append, coordinator=0)
        store.sim.run(until=1.0)
        for r in replicas[:2]:
            store.nodes[r].crash()
        store.read("user0", 3, results.append, coordinator=0)
        store.read("user0", 2, results.append, coordinator=0)
        store.sim.run(until=5.0)
        assert [r.error for r in results] == [None, "unavailable", None]
        assert results[0].replicas_contacted == 4 and results[2].replicas_contacted == 2
        assert store.failures == {"read_unavailable": 1}


# -- the load phase ----------------------------------------------------------------


def reference_preload(store, keys, value_size=None):
    """``preload`` with every key resolved by its own fresh ring walk.

    The load enters ``written_keys()`` as a write of each key would: the
    write path's first-write record.
    """
    size = value_size if value_size is not None else store.default_value_size
    t = store.sim.now
    for key in keys:
        store.write_seq += 1
        version = Version(t, store.write_seq, size)
        for r in reference_for_key(store.strategy, key, store.ring, store.topology):
            store.nodes[r].data[key] = version
        store.oracle.note_preload(key, version)
        if key not in store._written_set:
            store._written_set.add(key)
            store._written_keys.append(key)


def load_state(store):
    return {
        "data": [
            {k: (v.timestamp, v.write_id, v.size) for k, v in node.data.items()}
            for node in store.nodes
        ],
        "data_order": [list(node.data) for node in store.nodes],
        "started": {k: v.write_id for k, v in store.oracle._latest_started.items()},
        "acked": {k: v.write_id for k, v in store.oracle._latest_acked.items()},
        "write_seq": store.write_seq,
        "written": list(store.written_keys()),
    }


def touch(store, keys):
    """Resolve each key's placement, as its first operation would."""
    for key in keys:
        store.replica_sets(key)


class TestLoadPhase:
    def test_preload_equals_the_per_key_loop(self):
        got, want = geo_store(), geo_store()
        got.preload(KEYS)
        reference_preload(want, KEYS)
        touch(got, KEYS)
        assert load_state(got) == load_state(want)
        assert got.write_seq == len(KEYS)
        # a second load over an overlapping, reordered key set at a later clock
        again = KEYS[250:100:-1] + [f"extra{i}" for i in range(40)]
        for store in (got, want):
            store.sim.run(until=1.5)
        got.preload(again, value_size=77)
        reference_preload(want, again, value_size=77)
        touch(got, again)
        assert load_state(got) == load_state(want)
        assert got.written_keys()[: len(KEYS)] == KEYS
        assert got.nodes[got.replica_sets("user200")[0][0]].data["user200"].size == 77

    def test_preload_then_traffic_continues_the_write_sequence(self):
        store = geo_store()
        store.preload(KEYS[:10])
        results = []
        store.write("user3", 2, results.append, coordinator=0)
        store.sim.run(until=1.0)
        assert results[0].ok and store.write_seq == 11

    def test_loading_walks_the_ring_once_per_arc_not_per_key(self, monkeypatch):
        starts = []
        walk_from = TokenRing.walk_from

        def counting(self, slot):
            starts.append(slot)
            return walk_from(self, slot)

        monkeypatch.setattr(TokenRing, "walk_from", counting)
        _, store = repro.grid5000_harmony_platform().build(seed=1)
        keys = [f"user{i}" for i in range(20_000)]
        store.preload(keys)
        assert starts == []  # recorded, not yet placed
        touch(store, keys)
        n_arcs = len(store.ring._tokens)
        assert n_arcs == 84 * 16
        assert 0 < len(starts) <= n_arcs
        assert len(set(starts)) == len(starts)  # no arc walked twice
        assert sum(len(node.data) for node in store.nodes) == 3 * 20_000


# -- the recorded load against the eager one ------------------------------------

POOL = [f"user{i}" for i in range(24)]
POOL_KEY = st.sampled_from(POOL)
PRELOADS = st.tuples(
    st.just("preload"),
    st.one_of(st.lists(POOL_KEY, max_size=24), st.builds(KeyRange, st.integers(0, 24))),
    st.sampled_from([None, 77]),
)
LOAD_STEPS = st.one_of(
    PRELOADS,
    PRELOADS,
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.05, 0.4])),
    st.tuples(st.just("write"), POOL_KEY),
    st.tuples(st.just("read"), POOL_KEY),
    st.tuples(st.just("txn"), POOL_KEY),
    st.tuples(st.just("bootstrap"), st.integers(0, 1)),
    st.tuples(st.just("decommission"), st.integers(0, 20)),
    st.tuples(st.just("crash"), st.integers(0, 6)),
)


def pending_keys(store):
    """Recorded load keys that no resolve or membership change installed."""
    batches = store._loads[store._pending :]
    return {key for keys, *_ in batches for key in keys} - store._loaded


def lazy_load_state(store):
    """What a load leaves behind, once every pool key has been resolved."""
    touch(store, POOL)
    state = load_state(store)
    del state["data_order"]  # a lazy key joins a replica's dict at its touch
    state["traffic"] = (
        store.sim.events_processed,
        store.network.traffic.total_bytes(),
        store.oracle.stale_reads,
    )
    return state


class TestRecordedLoad:
    """``preload`` records the load; the first resolve of a key installs it.

    Two stores run one script: one loads through ``preload``, the other
    through :func:`reference_preload`, which places every key at once.
    """

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        streaming=st.booleans(), load=PRELOADS, steps=st.lists(LOAD_STEPS, max_size=12)
    )
    def test_equals_the_eager_load(self, streaming, load, steps):
        lazy, eager = run_both(streaming, [load] + steps)
        assert lazy_load_state(lazy) == lazy_load_state(eager)
        assert pending_keys(lazy) == set()

    def test_a_key_reloaded_mid_migration_streams_its_new_version(self):
        keys = KEYS[:80]
        steps = [("preload", keys, None), ("bootstrap", 0), ("preload", keys, 77)]
        lazy, eager = run_both(True, steps)
        assert lazy.rebalancer.keys_streamed > 0
        assert lazy_load_state(lazy) == lazy_load_state(eager)

    def test_a_written_key_loads_again(self):
        store = geo_store()
        store.write("a", 1, coordinator=0)
        store.sim.run(until=1.0)
        store.preload(["a"], 777)
        results = []
        store.read("a", 1, results.append, coordinator=0)
        store.sim.run(until=2.0)
        assert results[0].version.size == 777 and not results[0].stale

    def test_a_key_read_before_its_load_loads_at_once(self):
        store = geo_store()
        results = []
        store.read("a", 1, results.append, coordinator=0)
        store.sim.run(until=1.0)
        store.preload(["a"], 777)  # "a" has a memo entry: it never misses again
        store.read("a", 1, results.append, coordinator=0)
        store.sim.run(until=2.0)
        assert results[0].version is None and results[1].version.size == 777

    def test_a_membership_change_installs_every_pending_key(self):
        store = geo_store()
        attach_rebalancer(store)
        store.preload(KEYS)
        store.bootstrap_node(1)
        assert pending_keys(store) == set()
        held = {k for node in store.nodes for k in node.data}
        assert held == set(KEYS) and store._placement_cache == {}

    def test_a_range_key_written_before_its_first_resolve(self):
        steps = [
            ("preload", KeyRange(24), None),
            ("write", "user7"),
            ("advance", 0.05),
            ("preload", KeyRange(12), None),  # same clock and size: no flush
            ("write", "user3"),
            ("write", "user3"),
        ]
        lazy, eager = run_both(False, steps)
        assert lazy._written_keys == ["user7", "user3"]
        assert lazy.written_keys() == POOL
        assert lazy_load_state(lazy) == lazy_load_state(eager)

    def test_a_range_batch_lands_on_resolved_and_written_keys(self):
        store = geo_store()
        store.read("user2", 1, coordinator=0)
        store.write("user9", 1, coordinator=0)
        store.sim.run(until=1.0)
        store.preload(KeyRange(12), 777)
        for key in ("user2", "user9"):  # memo hits: installed by the preload itself
            replicas = store.replica_sets(key)[0]
            assert {store.nodes[r].data[key].size for r in replicas} == {777}
        assert store._loaded == {"user2", "user9"}
        steps = [("read", "user2"), ("write", "user9"), ("advance", 1.0),
                 ("preload", KeyRange(12), 777)]
        lazy, eager = run_both(True, steps)
        assert lazy_load_state(lazy) == lazy_load_state(eager)

    def test_a_key_loaded_mid_migration_is_not_loaded_again_after_its_hand_off(self):
        # the second load installs every key at once (all are loaded); the
        # writes land, the hand-off drops each key's memo entry, and the
        # next resolve must not put the load version back over the writes
        steps = [("preload", KeyRange(24), None), ("bootstrap", 0),
                 ("preload", KeyRange(24), 77)] + [("write", key) for key in POOL]
        lazy, eager = run_both(True, steps)
        assert lazy.rebalancer.keys_streamed > 0
        assert lazy_load_state(lazy) == lazy_load_state(eager)

    def test_a_bootstrap_before_the_first_touch(self):
        steps = [("preload", KeyRange(24), None), ("bootstrap", 0),
                 ("preload", KeyRange(16), 77), ("read", "user20")]
        lazy, eager = run_both(True, steps)
        assert lazy._pending == 1 and pending_keys(lazy) == set()
        assert lazy_load_state(lazy) == lazy_load_state(eager)


class TestKeyRange:
    def test_is_the_keyspace_key_of_names(self):
        keys = KeyRange(24)
        assert len(keys) == 24 and list(keys) == POOL
        assert list(keys) == [WorkloadSpec().key_of(i) for i in range(24)]
        assert list(keys) == [TXN_WORKLOADS["bank-transfer"].key_of(i) for i in range(24)]
        assert [keys.get(key) for key in POOL] == list(range(24))
        assert all(key in keys for key in POOL)
        assert keys["user23"] == 23

    @pytest.mark.parametrize(
        "key", ["user24", "user007", "user-1", "user", "user\u0663", "xuser1", "user+1"]
    )
    def test_a_miss_is_no_member(self, key):
        keys = KeyRange(24)
        assert key not in keys and keys.get(key) is None and keys.get(key, -1) == -1
        with pytest.raises(KeyError):
            keys[key]

    def test_a_million_key_preload_allocates_no_per_key_object(self):
        store = geo_store()
        keys = KeyRange(1_000_000)
        tracemalloc.start()
        try:
            store.preload(keys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert store.write_seq == 1_000_000
        store.read("user999999", 1, coordinator=0)
        replicas = store.replica_sets("user999999")[0]
        assert store.nodes[replicas[0]].data["user999999"].write_id == 1_000_000


def attach_rebalancer(store):
    repro.StreamingRebalancer(
        store, repro.RebalanceConfig(pump_interval=0.005, attempt_timeout=0.1)
    )


def drain(store):
    store.sim.run(until=store.sim.now + 5.0)
    assert not store.rebalancer.active


def run_both(streaming, steps):
    """Run ``steps`` on a lazily and an eagerly loaded store; drain both.

    A script that changes membership always gets a streaming rebalancer (a
    bare store rejects the change); ``streaming`` attaches one regardless.
    """
    streaming = streaming or any(s[0] in ("bootstrap", "decommission") for s in steps)
    lazy, eager = geo_store(), geo_store()
    for store in (lazy, eager):
        if streaming:
            attach_rebalancer(store)
        config = TxnConfig(
            validate_reads=False, prepare_timeout=0.05, client_timeout=0.2,
            retry_interval=0.01, status_interval=0.01,
        )
        tstore = TransactionalStore(store, config=config)
        for step in steps:
            apply_step(store, tstore, step, store is lazy)
        store.sim.run(until=store.sim.now + 5.0)
    return lazy, eager


def apply_step(store, tstore, step, lazy):
    kind, arg = step[0], step[1]
    if kind == "preload":
        if lazy:
            store.preload(arg, step[2])
        else:
            reference_preload(store, list(arg), step[2])
    elif kind == "advance":
        store.sim.run(until=store.sim.now + arg)
    elif kind == "write":
        store.write(arg, 2, coordinator=0)
    elif kind == "read":
        store.read(arg, 1, coordinator=0)
    elif kind == "txn" and len(tstore.participants) == len(store.nodes):
        # a blind write (the 2PC fan-out resolves the key); transactions
        # serve a fixed membership, so none after a join
        txn = tstore.begin()
        txn.write(arg, 300)
        txn.commit()
    elif kind == "bootstrap":
        store.bootstrap_node(arg)
    elif kind == "decommission":
        members = store.ring.members
        try:
            store.decommission_node(members[arg % len(members)])
        except (ConfigError, ConsistencyError):
            pass
    elif kind == "crash":
        store.nodes[arg].crash()
