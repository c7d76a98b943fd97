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
        assert e.value == 0.0
        e.update(10.0)
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
                assert (a._value, a._last_t, a._initialized) == (
                    b._value, b._last_t, b._initialized
                )


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
        for x in xs.tolist():
            h.add(x)
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

    def test_percentile_alias(self):
        h = Histogram()
        h.add(0.5)
        assert h.percentile(50) == h.quantile(0.5)


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
