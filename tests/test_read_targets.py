"""Read-target choice: the memoized snitch order against the sort-based rule.

Without per-datacenter needs, a coordinator picks the first ``total`` live
replicas of a placement record in snitch order (its own datacenter first,
then by node id). The order is computed once per (record, datacenter) and
kept in a per-datacenter table on the store. These tests hold that memo to
the rule it replaced -- a fresh filter-and-sort of the live replicas on
every read -- across random deployments, liveness masks, membership
changes and private migration records.
"""

from __future__ import annotations

from typing import Dict, List

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.consistency import ConsistencyLevel as CL
from repro.cluster.replication import NetworkTopologyStrategy, SimpleStrategy
from repro.cluster.store import StoreConfig
from repro.common.errors import ConfigError, ConsistencyError
from repro.elastic import RebalanceConfig, StreamingRebalancer
from repro.net.topology import Datacenter, Topology
from repro.simcore.simulator import Simulator
from tests.conftest import sim_store

LEVELS = [
    1, 2, 3, 5,
    CL.ONE, CL.TWO, CL.THREE, CL.QUORUM, CL.ALL,
    CL.LOCAL_QUORUM, CL.EACH_QUORUM,
]
KEYS = [f"user{i}" for i in range(80)]


def reference_targets(store, coord_dc, replicas, requirement):
    """The sort-based choice, as the coordinator made it on every read."""
    alive = [r for r in replicas if store.nodes[r].up]
    chosen: List[int] = []
    if requirement.per_dc:
        by_dc: Dict[int, List[int]] = {}
        for r in alive:
            by_dc.setdefault(store.topology.dc_of(r), []).append(r)
        for dc, need in requirement.per_dc.items():
            pool = by_dc.get(dc, [])
            if len(pool) < need:
                return None
            chosen.extend(pool[:need])
    remaining = [r for r in alive if r not in chosen]
    remaining.sort(key=lambda r: (store.topology.dc_of(r) != coord_dc, r))
    while len(chosen) < requirement.total and remaining:
        chosen.append(remaining.pop(0))
    if len(chosen) < requirement.total:
        return None
    return chosen


def make_store(nodes_per_dc, strategy, rebalancer=False):
    store = sim_store(
        Simulator(),
        Topology(
            [Datacenter(f"dc{i}", f"r{i}") for i in range(len(nodes_per_dc))],
            list(nodes_per_dc),
        ),
        strategy=strategy,
        config=StoreConfig(seed=5, read_repair_chance=0.0),
    )
    if rebalancer:
        StreamingRebalancer(
            store, RebalanceConfig(pump_interval=0.005, attempt_timeout=0.1)
        )
    return store


def assert_memo_is_the_rule(store, keys, coordinators=None):
    """Every (coordinator, key, level) picks what the sort-based rule picks."""
    checked = 0
    for coord in coordinators or store.coordinators:
        for key in keys:
            replicas, _, by_dc = store.replica_info(key)
            for level in LEVELS:
                try:
                    requirement = coord._requirement(level, replicas, by_dc)
                except (ConfigError, ConsistencyError):
                    continue
                got = coord._select_read_targets(replicas, requirement)
                want = reference_targets(store, coord.dc, replicas, requirement)
                assert got == want, (coord.node_id, key, level)
                checked += 1
    assert checked


def private_records(store):
    return sum(
        1 for key, record in store._placement_cache.items()
        if record is not store.strategy.placement(key, store.ring, store.topology)
    )


def assert_memo_bounded(store):
    arcs = len(store.strategy._arcs)
    for orders in store._snitch_orders:
        assert len(orders) <= arcs + private_records(store)


@st.composite
def deployments(draw):
    nodes_per_dc = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    n = sum(nodes_per_dc)
    if draw(st.booleans()):
        strategy = SimpleStrategy(rf=draw(st.integers(1, min(n, 5))))
    else:
        quotas = {dc: draw(st.integers(0, k)) for dc, k in enumerate(nodes_per_dc)}
        assume(any(quotas.values()))
        strategy = NetworkTopologyStrategy(quotas)
    return nodes_per_dc, strategy


class TestSnitchMemo:
    @settings(max_examples=60, deadline=None)
    @given(deployments(), st.data())
    def test_memo_equals_the_sort_rule_under_any_liveness(self, deployment, data):
        nodes_per_dc, strategy = deployment
        store = make_store(nodes_per_dc, strategy)
        n = store.topology.n_nodes
        keys = KEYS[:20]
        # two liveness masks in turn: the memo must hold no liveness
        for _ in range(2):
            mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
            for node, up in zip(store.nodes, mask):
                node.up = up
            assert_memo_is_the_rule(store, keys)
        assert_memo_bounded(store)

    def test_coordinators_of_one_dc_share_the_stores_table(self):
        store = make_store(
            [3, 2], NetworkTopologyStrategy({0: 2, 1: 2}), rebalancer=True
        )
        for coord in store.coordinators:
            assert coord._orders is store._snitch_orders[coord.dc]
        joined = store.bootstrap_node(1)
        store.sim.run(until=60.0)
        assert not store.rebalancer.active
        assert store.coordinators[joined]._orders is store._snitch_orders[1]

    def test_membership_changes_with_streaming_and_private_records(self):
        store = make_store(
            [3, 3], NetworkTopologyStrategy({0: 2, 1: 2}), rebalancer=True
        )
        store.preload(KEYS)
        assert_memo_is_the_rule(store, KEYS)
        assert all(store._snitch_orders)

        joined = store.bootstrap_node(0)
        assert not any(store._snitch_orders), "a membership change empties it"
        pending = [k for k in KEYS if store.rebalancer.pending_old_replicas(k)]
        assert pending
        record = store.replica_info(pending[0])
        assert record[1] == (joined,)  # a private migration record
        assert_memo_is_the_rule(store, KEYS)
        assert private_records(store) > 0
        assert_memo_bounded(store)

        store.nodes[1].crash()  # liveness changes mid-migration
        assert_memo_is_the_rule(store, KEYS)
        store.nodes[1].recover()

        store.decommission_node(4)
        assert not any(store._snitch_orders)
        assert_memo_is_the_rule(store, KEYS)
        assert_memo_bounded(store)

        store.sim.run(until=60.0)
        assert not store.rebalancer.active
        assert private_records(store) == 0
        assert_memo_is_the_rule(store, KEYS)
        assert_memo_bounded(store)

    def test_a_completed_hand_off_drops_the_private_records_order(self):
        store = make_store([4], SimpleStrategy(rf=3), rebalancer=True)
        store.preload(KEYS)
        store.bootstrap_node(0)
        pending = [k for k in KEYS if store.rebalancer.pending_old_replicas(k)]
        replicas = store.replica_info(pending[0])[0]
        assert_memo_is_the_rule(store, pending[:1])
        assert id(replicas) in store._snitch_orders[0]
        store.invalidate_placement(pending[0])
        assert id(replicas) not in store._snitch_orders[0]
