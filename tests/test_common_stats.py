"""Unit + property tests for repro.common.stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.common.stats import (
    Ewma,
    Histogram,
    OnlineStats,
    RateEstimator,
    ReservoirSample,
    SlidingWindow,
)


class TestOnlineStats:
    def test_empty(self):
        s = OnlineStats()
        assert s.n == 0
        assert s.mean == 0.0
        assert s.variance == 0.0
        assert s.std == 0.0

    def test_single_value(self):
        s = OnlineStats()
        s.add(5.0)
        assert s.n == 1
        assert s.mean == 5.0
        assert s.variance == 0.0
        assert s.min == 5.0
        assert s.max == 5.0

    def test_matches_numpy(self):
        xs = [1.5, 2.7, -3.2, 8.8, 0.0, 4.1]
        s = OnlineStats()
        for x in xs:
            s.add(x)
        assert s.mean == pytest.approx(np.mean(xs))
        assert s.variance == pytest.approx(np.var(xs, ddof=1))
        assert s.min == min(xs)
        assert s.max == max(xs)
        assert s.sum == pytest.approx(sum(xs))

    def test_add_many_ndarray_fast_path(self):
        xs = np.linspace(-3, 7, 101)
        s = OnlineStats()
        s.add_many(xs)
        assert s.n == 101
        assert s.mean == pytest.approx(xs.mean())
        assert s.variance == pytest.approx(xs.var(ddof=1))

    def test_add_many_iterable(self):
        s = OnlineStats()
        s.add_many(iter([1.0, 2.0, 3.0]))
        assert s.n == 3
        assert s.mean == pytest.approx(2.0)

    def test_merge_empty_into_full(self):
        a = OnlineStats()
        a.add(1.0)
        a.merge(OnlineStats())
        assert a.n == 1 and a.mean == 1.0

    def test_merge_full_into_empty(self):
        a = OnlineStats()
        b = OnlineStats()
        b.add(3.0)
        b.add(5.0)
        a.merge(b)
        assert a.n == 2 and a.mean == pytest.approx(4.0)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_equals_concatenation(self, xs, ys):
        merged = OnlineStats()
        for x in xs:
            merged.add(x)
        other = OnlineStats()
        for y in ys:
            other.add(y)
        merged.merge(other)
        direct = OnlineStats()
        for v in xs + ys:
            direct.add(v)
        assert merged.n == direct.n
        assert merged.mean == pytest.approx(direct.mean, rel=1e-9, abs=1e-6)
        assert merged.variance == pytest.approx(direct.variance, rel=1e-6, abs=1e-4)
        assert merged.min == direct.min
        assert merged.max == direct.max


class TestEwma:
    def test_requires_exactly_one_mode(self):
        with pytest.raises(ConfigError):
            Ewma()
        with pytest.raises(ConfigError):
            Ewma(alpha=0.5, halflife=1.0)

    def test_alpha_bounds(self):
        with pytest.raises(ConfigError):
            Ewma(alpha=0.0)
        with pytest.raises(ConfigError):
            Ewma(alpha=1.5)
        with pytest.raises(ConfigError):
            Ewma(halflife=-1.0)

    def test_first_update_sets_value(self):
        e = Ewma(alpha=0.3)
        assert not e.initialized
        assert e.value == 0.0
        e.update(10.0)
        assert e.initialized
        assert e.value == 10.0

    def test_alpha_blend(self):
        e = Ewma(alpha=0.5)
        e.update(0.0)
        e.update(10.0)
        assert e.value == pytest.approx(5.0)

    def test_halflife_decay(self):
        e = Ewma(halflife=1.0)
        e.update(0.0, t=0.0)
        e.update(10.0, t=1.0)  # exactly one halflife: weight 0.5
        assert e.value == pytest.approx(5.0)

    def test_halflife_requires_timestamp(self):
        e = Ewma(halflife=1.0)
        e.update(1.0, t=0.0)
        with pytest.raises(ConfigError):
            e.update(2.0)

    def test_converges_to_constant(self):
        e = Ewma(alpha=0.2)
        for _ in range(200):
            e.update(7.0)
        assert e.value == pytest.approx(7.0)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),  # first EWMA updated
                st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6),
                st.floats(0.0, 3.0),  # clock step (0: same instant)
            ),
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_update_many_is_update_bit_for_bit(self, steps):
        # Clocks drift apart when a step starts past rank 0 (like a hint
        # replay on the tail rank) and agree again when one covers them all;
        # mixed halflives and an alpha EWMA take update()'s path.
        def make():
            ewmas = [Ewma(halflife=h) for h in (5.0, 5.0, 5.0, 2.0, 5.0)]
            return ewmas + [Ewma(alpha=0.3)]

        batched, single = make(), make()
        t = 0.0
        for first, xs, dt in steps:
            t += dt
            Ewma.update_many(batched[first:], xs, t)
            for e, x in zip(single[first:], xs):
                e.update(x, t=t)
            for a, b in zip(batched, single):
                assert (a._value, a._last_t) == (b._value, b._last_t)
                assert a.initialized == b.initialized


class TestHistogram:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Histogram(lo=0.0, hi=1.0)
        with pytest.raises(ConfigError):
            Histogram(lo=2.0, hi=1.0)
        with pytest.raises(ConfigError):
            Histogram(nbuckets=1)

    def test_mean_is_exact(self):
        h = Histogram(lo=1e-4, hi=10.0)
        for x in (0.001, 0.01, 0.1):
            h.add(x)
        assert h.mean == pytest.approx((0.001 + 0.01 + 0.1) / 3)

    def test_quantile_empty(self):
        h = Histogram()
        assert h.quantile(0.5) == 0.0

    def test_quantile_bounds_check(self):
        h = Histogram()
        with pytest.raises(ConfigError):
            h.quantile(1.5)

    def test_quantile_accuracy(self):
        h = Histogram(lo=1e-4, hi=10.0, nbuckets=512)
        rng = np.random.default_rng(0)
        xs = rng.lognormal(-3.0, 0.5, size=20_000)
        h.add_many(xs)
        for q in (0.5, 0.9, 0.99):
            approx = h.quantile(q)
            exact = float(np.quantile(xs, q))
            assert approx == pytest.approx(exact, rel=0.05)

    def test_below_and_above_range(self):
        h = Histogram(lo=0.01, hi=1.0)
        h.add(0.001)  # below
        h.add(5.0)  # above
        assert h.n == 2
        assert h.quantile(0.0) <= 0.01
        assert h.quantile(1.0) == 1.0

    def test_add_many_matches_add(self):
        xs = np.array([0.002, 0.02, 0.2, 2.0])
        h1 = Histogram(lo=1e-3, hi=1.0)
        h2 = Histogram(lo=1e-3, hi=1.0)
        for x in xs:
            h1.add(float(x))
        h2.add_many(xs)
        assert h1.n == h2.n
        assert np.array_equal(h1._counts, h2._counts)
        assert h1._below == h2._below and h1._above == h2._above

    def test_percentile_alias(self):
        h = Histogram()
        h.add(0.5)
        assert h.percentile(50) == h.quantile(0.5)


class TestSlidingWindow:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SlidingWindow(0.0)

    def test_eviction(self):
        w = SlidingWindow(span=1.0)
        w.add(0.0, 1.0)
        w.add(0.5, 2.0)
        assert w.count(0.9) == 2
        assert w.count(1.2) == 1  # item at t=0 expired
        assert w.sum(1.2) == 2.0

    def test_mean_empty(self):
        w = SlidingWindow(span=1.0)
        assert w.mean(10.0) == 0.0

    def test_values_snapshot(self):
        w = SlidingWindow(span=10.0)
        w.add(1.0, 3.0)
        w.add(2.0, 4.0)
        assert w.values(2.5) == [3.0, 4.0]


class TestRateEstimator:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RateEstimator(window=0.0)

    def test_zero_before_any_event(self):
        r = RateEstimator(window=1.0)
        assert r.rate(5.0) == 0.0

    def test_steady_rate(self):
        r = RateEstimator(window=2.0)
        for i in range(200):
            r.record(i * 0.01)  # 100 events/sec for 2s
        assert r.rate(2.0) == pytest.approx(100.0, rel=0.05)

    def test_cold_start_uses_elapsed_span(self):
        r = RateEstimator(window=10.0)
        for i in range(10):
            r.record(i * 0.1)  # 10 events in 0.9s ~ 11/s
        assert r.rate(1.0) == pytest.approx(10.0, rel=0.25)

    def test_rate_decays_after_burst(self):
        r = RateEstimator(window=1.0)
        for i in range(100):
            r.record(i * 0.001)
        assert r.rate(0.2) > 0
        assert r.rate(5.0) == 0.0  # all events expired


class TestReservoirSample:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ReservoirSample(0)

    def test_keeps_everything_under_capacity(self):
        r = ReservoirSample(10, rng=0)
        for i in range(5):
            r.add(float(i))
        assert sorted(r.sample) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_capacity_bound(self):
        r = ReservoirSample(10, rng=0)
        for i in range(1000):
            r.add(float(i))
        assert len(r.sample) == 10
        assert r.n == 1000

    def test_uniformity(self):
        # Each element should land in the reservoir with p = cap/n.
        hits = np.zeros(100)
        for seed in range(300):
            r = ReservoirSample(10, rng=seed)
            for i in range(100):
                r.add(float(i))
            for v in r.sample:
                hits[int(v)] += 1
        # expected 30 hits each; loose tolerance to stay deterministic
        assert hits.mean() == pytest.approx(30.0, abs=0.001)
        assert hits.std() < 12.0


class TestFidelityHelpers:
    """ks_distance / relative_error / within_tolerance (the fidelity suite's
    agreement measures)."""

    def test_ks_identical_samples(self):
        from repro.common.stats import ks_distance

        assert ks_distance([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]) == 0.0

    def test_ks_disjoint_samples(self):
        from repro.common.stats import ks_distance

        assert ks_distance([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_ks_known_value(self):
        from repro.common.stats import ks_distance

        # F_a jumps to 1 at 0; F_b is 0 until 1: sup gap is 0.5 at x=0.5
        assert ks_distance([0.0, 1.0], [1.0, 2.0]) == pytest.approx(0.5)

    def test_ks_empty_rejected(self):
        from repro.common.stats import ks_distance

        with pytest.raises(ConfigError):
            ks_distance([], [1.0])
        with pytest.raises(ConfigError):
            ks_distance([1.0], [])

    @settings(deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
    )
    def test_ks_bounded_and_symmetric(self, a, b):
        from repro.common.stats import ks_distance

        d = ks_distance(a, b)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(ks_distance(b, a))

    def test_relative_error_basic(self):
        from repro.common.stats import relative_error

        assert relative_error(110.0, 100.0) == pytest.approx(0.10)
        assert relative_error(90.0, 100.0) == pytest.approx(0.10)

    def test_relative_error_floor_guards_near_zero(self):
        from repro.common.stats import relative_error

        # without the floor a 0.001-vs-0.002 staleness gap is a 1x error;
        # with the floor it is measured against the scale that matters.
        assert relative_error(0.002, 0.001) == pytest.approx(1.0)
        assert relative_error(0.002, 0.001, floor=0.1) == pytest.approx(0.01)

    def test_relative_error_zero_reference(self):
        import math

        from repro.common.stats import relative_error

        assert relative_error(0.0, 0.0) == 0.0
        assert math.isinf(relative_error(1.0, 0.0))

    def test_within_tolerance(self):
        from repro.common.stats import within_tolerance

        assert within_tolerance(105.0, 100.0, rel=0.10)
        assert not within_tolerance(125.0, 100.0, rel=0.10)
        assert within_tolerance(0.0, 0.03, rel=0.35, abs_floor=0.1)
