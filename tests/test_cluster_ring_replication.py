"""Tests for the partitioner, token ring and replication strategies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError, ConsistencyError
from repro.cluster.partitioner import TOKEN_SPACE, token_of
from repro.cluster.replication import NetworkTopologyStrategy, SimpleStrategy
from repro.cluster.ring import TokenRing
from repro.net.topology import Topology


class TestPartitioner:
    def test_deterministic(self):
        assert token_of("user1") == token_of("user1")

    def test_range(self):
        for key in ("a", "user123", "x" * 100, ""):
            assert 0 <= token_of(key) < TOKEN_SPACE

    def test_distinct_keys_distinct_tokens(self):
        tokens = {token_of(f"user{i}") for i in range(1000)}
        assert len(tokens) == 1000  # md5 collisions would be astronomical

    @given(st.text(max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_property_stable_and_in_range(self, key):
        t = token_of(key)
        assert t == token_of(key)
        assert 0 <= t < TOKEN_SPACE


class TestTokenRing:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TokenRing(0)
        with pytest.raises(ConfigError):
            TokenRing(3, vnodes=0)

    def test_walk_yields_distinct_nodes(self):
        ring = TokenRing(6, vnodes=8)
        walked = list(ring.walk(token_of("user42")))
        assert sorted(walked) == list(range(6))  # all nodes, each once

    def test_walk_deterministic(self):
        ring = TokenRing(6, vnodes=8)
        assert list(ring.walk(token_of("k"))) == list(ring.walk(token_of("k")))

    def test_two_rings_agree(self):
        # layout depends only on (n_nodes, vnodes), never on instance state
        a = TokenRing(5, vnodes=16)
        b = TokenRing(5, vnodes=16)
        for i in range(50):
            key = f"user{i}"
            assert list(a.walk(token_of(key))) == list(b.walk(token_of(key)))

    def test_primary_matches_walk_head(self):
        ring = TokenRing(4, vnodes=16)
        for i in range(30):
            key = f"user{i}"
            assert ring.primary_for_token(token_of(key)) == next(ring.walk(token_of(key)))

    def test_balance(self):
        ring = TokenRing(8, vnodes=32)
        fractions = ring.ownership_fractions()
        assert fractions.sum() == pytest.approx(1.0)
        # each of 8 nodes should own 12.5% +- a few points
        assert fractions.min() > 0.04
        assert fractions.max() < 0.25

    def test_single_node_owns_everything(self):
        ring = TokenRing(1, vnodes=4)
        assert ring.primary_for_token(123456) == 0

    @given(st.integers(0, TOKEN_SPACE - 1))
    @settings(max_examples=50, deadline=None)
    def test_property_walk_complete(self, token):
        ring = TokenRing(5, vnodes=4)
        assert sorted(ring.walk(token)) == list(range(5))


class TestBoundedMovement:
    """The consistent-hashing contract: membership changes move O(1/N) keys.

    Adding one node to an N-node ring remaps about 1/(N+1) of the keys, and
    *never* remaps a key between two surviving nodes -- movement only flows
    toward the joiner (and, on removal, only away from the leaver).
    """

    SAMPLE = 20_000

    @pytest.mark.parametrize("n_nodes", [4, 8, 16])
    def test_join_moves_about_one_over_n_plus_one(self, n_nodes):
        before = TokenRing(n_nodes, vnodes=32)
        after = TokenRing(n_nodes, vnodes=32)
        after.add_node(n_nodes)
        moved = 0
        for i in range(self.SAMPLE):
            t = token_of(f"user{i}")
            a, b = before.primary_for_token(t), after.primary_for_token(t)
            if a != b:
                # a remap between two survivors would double data motion
                assert b == n_nodes, f"key moved {a} -> {b}, not to the joiner"
                moved += 1
        expected = 1.0 / (n_nodes + 1)
        # vnode placement is random-ish; allow a generous band around 1/(N+1)
        assert 0.4 * expected < moved / self.SAMPLE < 2.0 * expected

    @pytest.mark.parametrize("n_nodes", [4, 8, 16])
    def test_leave_moves_only_the_leavers_keys(self, n_nodes):
        before = TokenRing(n_nodes, vnodes=32)
        after = TokenRing(n_nodes, vnodes=32)
        leaver = n_nodes // 2
        after.remove_node(leaver)
        moved = 0
        for i in range(self.SAMPLE):
            t = token_of(f"user{i}")
            a, b = before.primary_for_token(t), after.primary_for_token(t)
            if a != b:
                assert a == leaver, f"key moved {a} -> {b}, not from the leaver"
                moved += 1
        expected = 1.0 / n_nodes
        assert 0.4 * expected < moved / self.SAMPLE < 2.0 * expected


class TestSimpleStrategy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SimpleStrategy(0)

    def test_replica_count_and_distinctness(self, small_topology):
        ring = TokenRing(small_topology.n_nodes, vnodes=8)
        strat = SimpleStrategy(rf=3)
        for i in range(40):
            reps = strat.replicas(f"user{i}", ring, small_topology)
            assert len(reps) == 3
            assert len(set(reps)) == 3

    def test_rf_exceeding_cluster(self, small_topology):
        ring = TokenRing(small_topology.n_nodes, vnodes=8)
        strat = SimpleStrategy(rf=10)
        with pytest.raises(ConsistencyError):
            strat.replicas("k", ring, small_topology)

    def test_caching_returns_same_list(self, small_topology):
        ring = TokenRing(small_topology.n_nodes, vnodes=8)
        strat = SimpleStrategy(rf=2)
        assert strat.replicas("k", ring, small_topology) is strat.replicas(
            "k", ring, small_topology
        )

    def test_replicas_by_dc_totals(self, small_topology):
        ring = TokenRing(small_topology.n_nodes, vnodes=8)
        strat = SimpleStrategy(rf=3)
        by_dc = strat.placement("user7", ring, small_topology)[2]
        assert sum(by_dc.values()) == 3


class TestNetworkTopologyStrategy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            NetworkTopologyStrategy({})
        with pytest.raises(ConfigError):
            NetworkTopologyStrategy({0: -1})
        with pytest.raises(ConfigError):
            NetworkTopologyStrategy({0: 0})

    def test_per_dc_counts_honored(self, small_topology):
        ring = TokenRing(small_topology.n_nodes, vnodes=8)
        strat = NetworkTopologyStrategy({0: 2, 1: 1})
        for i in range(40):
            key = f"user{i}"
            by_dc = strat.placement(key, ring, small_topology)[2]
            assert by_dc == {0: 2, 1: 1}
            reps = strat.replicas(key, ring, small_topology)
            assert len(reps) == 3 and len(set(reps)) == 3

    def test_zero_count_dcs_dropped(self):
        strat = NetworkTopologyStrategy({0: 2, 1: 0})
        assert strat.rf_per_dc == {0: 2}
        assert strat.rf_total == 2

    def test_unknown_dc_rejected(self, small_topology):
        ring = TokenRing(small_topology.n_nodes, vnodes=8)
        strat = NetworkTopologyStrategy({5: 1})
        with pytest.raises(ConfigError):
            strat.replicas("k", ring, small_topology)

    def test_dc_overflow_rejected(self, small_topology):
        ring = TokenRing(small_topology.n_nodes, vnodes=8)
        strat = NetworkTopologyStrategy({1: 3})  # south has only 2 nodes
        with pytest.raises(ConsistencyError):
            strat.replicas("k", ring, small_topology)

    def test_deterministic_across_instances(self, small_topology):
        ring = TokenRing(small_topology.n_nodes, vnodes=8)
        a = NetworkTopologyStrategy({0: 2, 1: 1})
        b = NetworkTopologyStrategy({0: 2, 1: 1})
        for i in range(20):
            key = f"user{i}"
            assert a.replicas(key, ring, small_topology) == b.replicas(
                key, ring, small_topology
            )
