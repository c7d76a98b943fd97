"""Invalidation tests for the hot-path memoization added by the perf pass.

Every cache on the operation path -- store placement, resolved
requirements, network routes, ring ownership fractions -- answers a
question whose inputs change on live membership events. These tests pin
the contract: a cached answer is bit-identical to a fresh resolve, before
and after every bootstrap/decommission, including mid-migration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.consistency import ConsistencyLevel
from repro.cluster.replication import SimpleStrategy
from repro.cluster.ring import TokenRing
from repro.cluster.store import StoreConfig
from repro.common.stats import Histogram
from repro.elastic.rebalance import RebalanceConfig, StreamingRebalancer
from repro.net.topology import Datacenter, LinkClass, Topology
from repro.net.transport import Network
from repro.simcore.simulator import Simulator
from tests.conftest import sim_store


def _fresh_placement(store, key):
    """Uncached reference placement for ``key`` (strategy walk, no memo)."""
    strategy = SimpleStrategy(rf=store.strategy.rf_total)
    return strategy.replicas(key, store.ring, store.topology)


@pytest.fixture
def elastic_store():
    sim = Simulator()
    topo = Topology([Datacenter("dc", "r")], [5])
    return sim_store(
        sim,
        topo,
        strategy=SimpleStrategy(rf=3),
        config=StoreConfig(seed=3, read_repair_chance=0.0),
    )


KEYS = [f"user{i}" for i in range(64)]


def _attach_rebalancer(store):
    return StreamingRebalancer(
        store, RebalanceConfig(pump_interval=0.005, attempt_timeout=0.1)
    )


def _drain(store, rebalancer):
    store.sim.run(until=60.0)
    assert not rebalancer.active


class TestPlacementCache:
    def test_replica_info_is_memoized(self, elastic_store):
        st = elastic_store
        st.preload(KEYS)
        first = st.replica_info("user0")
        assert st.replica_info("user0") is first  # cached entry reused
        replicas, extra, by_dc = first
        assert replicas == _fresh_placement(st, "user0")
        assert extra == ()
        assert sum(by_dc.values()) == len(replicas)

    def test_bootstrap_invalidates_placement(self, elastic_store):
        st = elastic_store
        rebalancer = _attach_rebalancer(st)
        st.preload(KEYS)
        before = {k: st.replica_sets(k)[0] for k in KEYS}
        st.bootstrap_node(0)
        _drain(st, rebalancer)
        after = {k: st.replica_sets(k)[0] for k in KEYS}
        # The cache must answer with the *new* ring's placement...
        for k in KEYS:
            assert after[k] == _fresh_placement(st, k), k
        # ...and the newcomer actually took over some placements.
        assert any(before[k] != after[k] for k in KEYS)
        assert any(5 in after[k] for k in KEYS)

    def test_decommission_invalidates_placement(self, elastic_store):
        st = elastic_store
        rebalancer = _attach_rebalancer(st)
        st.preload(KEYS)
        st.decommission_node(4)
        _drain(st, rebalancer)
        for k in KEYS:
            placement = st.replica_sets(k)[0]
            assert 4 not in placement, k
            assert placement == _fresh_placement(st, k), k

    def test_streaming_migration_cache_lifecycle(self, elastic_store):
        st = elastic_store
        rebalancer = _attach_rebalancer(st)
        st.preload(KEYS)
        strategy_before = {k: tuple(st.replica_sets(k)[0]) for k in KEYS}
        new_node = st.bootstrap_node(0)
        # Mid-migration: pending keys stay with their old owners (the memo
        # must not leak the new placement early), incoming owners are extra.
        moved = 0
        for k in KEYS:
            authoritative, extra = st.replica_sets(k)
            if extra:
                moved += 1
                assert tuple(authoritative) == strategy_before[k], k
                assert all(n == new_node for n in extra)
        assert moved > 0
        _drain(st, rebalancer)
        # Drained: every key must resolve to the new ring's placement.
        for k in KEYS:
            authoritative, extra = st.replica_sets(k)
            assert extra == ()
            assert authoritative == _fresh_placement(st, k), k


class TestRequirementCache:
    def test_same_shape_reuses_requirement_instance(self, elastic_store):
        st = elastic_store
        coord = st.coordinators[0]
        replicas, _, by_dc = st.replica_info("user0")
        first = coord._requirement(2, replicas, by_dc)
        assert coord._requirement(2, replicas, by_dc) is first
        assert first.total == 2

    def test_local_quorum_keys_on_coordinator_dc(self):
        sim = Simulator()
        topo = Topology([Datacenter("a", "r"), Datacenter("b", "r")], [3, 3])
        st = sim_store(
            sim, topo, strategy=SimpleStrategy(rf=4), config=StoreConfig(seed=4)
        )
        st.preload(["user0"])
        replicas, _, by_dc = st.replica_info("user0")
        coords = {st.topology.dc_of(c.node_id): c for c in st.coordinators}
        req_a = coords[0]._requirement(
            ConsistencyLevel.LOCAL_QUORUM, replicas, by_dc
        )
        req_b = coords[1]._requirement(
            ConsistencyLevel.LOCAL_QUORUM, replicas, by_dc
        )
        assert req_a.per_dc != req_b.per_dc  # distinct cached entries per DC

    def test_rf_change_misses_the_cache(self, elastic_store):
        st = elastic_store
        coord = st.coordinators[0]
        req3 = coord._requirement(ConsistencyLevel.ALL, [0, 1, 2], {0: 3})
        req2 = coord._requirement(ConsistencyLevel.ALL, [0, 1], {0: 2})
        assert req3.total == 3 and req2.total == 2


class TestNetworkRouteCache:
    def test_routes_cover_new_nodes_after_bootstrap(self, elastic_store):
        st = elastic_store
        _attach_rebalancer(st)
        net = st.network
        assert net.topology.link_class(0, 1) is LinkClass.INTRA_DC
        fired = []
        net.send(0, 1, 100, fired.append, "x")
        assert net._routes[0][1] is not None
        new_node = st.bootstrap_node(0)
        # invalidated by the bootstrap: one empty row and slot per node
        assert net._routes == [[None] * (new_node + 1)] * (new_node + 1)
        net.send(0, new_node, 100, fired.append, "y")
        cls, _, dcs, _, _, _, sigma = net._routes[0][new_node]
        assert cls is LinkClass.INTRA_DC and dcs == (0, 0)
        assert sigma is None  # the default links are FixedLatency, not lognormal

    def test_traffic_matrix_views_and_codes_agree(self):
        # Network.send bumps the counters in place with its route's int
        # code; record() goes through the enum. Both must land in one cell.
        topo = Topology([Datacenter("a", "r"), Datacenter("b", "r")], [1, 1])
        net = Network(Simulator(), topo, rng=0)
        t = net.traffic
        t.record(LinkClass.INTER_AZ, 10)
        net.send(0, 1, 20, lambda: None)
        assert t.bytes[LinkClass.INTER_AZ] == 30
        assert t.messages[LinkClass.INTER_AZ] == 2
        assert t.billable_bytes() == 30
        delta = t.delta(t.snapshot())
        assert delta.total_bytes() == 0


class TestRingCaches:
    def test_ownership_fractions_memoized_and_invalidated(self):
        ring = TokenRing(6, vnodes=16)
        first = ring.ownership_fractions()
        assert ring.ownership_fractions() is first
        assert abs(float(first.sum()) - 1.0) < 1e-12
        ring.add_node(6)
        grown = ring.ownership_fractions()
        assert grown is not first
        assert len(grown) == 7 and grown[6] > 0
        assert abs(float(grown.sum()) - 1.0) < 1e-12
        ring.remove_node(6)
        shrunk = ring.ownership_fractions()
        assert shrunk is not grown
        np.testing.assert_allclose(shrunk, first)


class TestHistogramFastPath:
    def test_add_matches_searchsorted_reference(self):
        h = Histogram(lo=1e-4, hi=10.0, nbuckets=64)
        rng = np.random.default_rng(9)
        values = list(rng.lognormal(-3.0, 2.0, size=4000))
        # Exact bucket edges are the off-by-one hazard of the closed form.
        values += list(h._edges_list) + [h.lo, h.hi, h.lo / 2, h.hi * 2]
        ref_counts = [0] * h.nbuckets
        below = above = 0
        for x in values:
            h.add(x)
            if x < h.lo:
                below += 1
            elif x >= h.hi:
                above += 1
            else:
                idx = int(np.searchsorted(h._edges, x, side="right")) - 1
                ref_counts[min(max(idx, 0), h.nbuckets - 1)] += 1
        assert h._counts == ref_counts
        assert h._below == below and h._above == above

    def test_nan_lands_in_top_bucket_like_searchsorted_did(self):
        h = Histogram(lo=1e-4, hi=10.0, nbuckets=16)
        h.add(float("nan"))  # must not raise
        assert h._counts[-1] == 1
        assert h.n == 1

