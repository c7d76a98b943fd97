"""Tests for the closed-form, strict, DC-aware and Monte-Carlo stale models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.monitor.collector import MonitorSnapshot
from repro.stale.dcmodel import (
    DeploymentInfo,
    forecast_stale,
    per_key_stale_dc,
    system_stale_rate_dc,
)
from repro.stale.model import (
    StaleModelParams,
    closed_form_exponential,
    params_from_snapshot,
    per_key_stale_probability,
    per_key_stale_probability_strict,
    system_stale_rate,
)
from repro.stale.montecarlo import MonteCarloStaleEstimator

WINDOWS5 = [0.0, 0.002, 0.004, 0.010, 0.015]


class TestCommittedModel:
    def test_zero_write_rate(self):
        assert per_key_stale_probability(0.0, 1, 1, WINDOWS5) == 0.0

    def test_quorum_intersection_zero(self):
        for r in range(1, 6):
            for w in range(1, 6):
                p = per_key_stale_probability(10.0, r, w, WINDOWS5)
                if r + w > 5:
                    assert p == 0.0
                else:
                    assert p >= 0.0

    def test_monotone_decreasing_in_read_level(self):
        probs = [per_key_stale_probability(20.0, r, 1, WINDOWS5) for r in range(1, 6)]
        for a, b in zip(probs, probs[1:]):
            assert a >= b - 1e-12

    def test_monotone_increasing_in_write_rate(self):
        probs = [
            per_key_stale_probability(lam, 1, 1, WINDOWS5)
            for lam in (0.1, 1.0, 10.0, 100.0)
        ]
        for a, b in zip(probs, probs[1:]):
            assert b >= a

    def test_monotone_in_windows(self):
        small = per_key_stale_probability(10.0, 1, 1, [0.0, 0.001, 0.001])
        large = per_key_stale_probability(10.0, 1, 1, [0.0, 0.1, 0.1])
        assert large > small

    def test_single_replica_always_fresh(self):
        # RF=1: the only replica is the synchronous one
        assert per_key_stale_probability(100.0, 1, 1, [0.0]) == 0.0

    def test_exact_two_replica_case(self):
        # RF=2, w=1, r=1: avoid=1/2; contacted laggard window W with prob 1
        lam, w2 = 5.0, 0.01
        expected = 0.5 * (1 - math.exp(-lam * w2))
        got = per_key_stale_probability(lam, 1, 1, [0.0, w2])
        assert got == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ConfigError):
            per_key_stale_probability(-1.0, 1, 1, WINDOWS5)
        with pytest.raises(ConfigError):
            per_key_stale_probability(1.0, 0, 1, WINDOWS5)
        with pytest.raises(ConfigError):
            per_key_stale_probability(1.0, 1, 9, WINDOWS5)

    @given(
        st.floats(0.0, 1000.0),
        st.integers(1, 5),
        st.integers(1, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_valid_probability(self, lam, r, w):
        p = per_key_stale_probability(lam, r, w, WINDOWS5)
        assert 0.0 <= p <= 1.0


class TestStrictModel:
    def test_no_quorum_shortcut(self):
        # strict staleness is positive even for r+w > N (in-flight races)
        p = per_key_stale_probability_strict(50.0, 5, [0.001] * 5)
        assert p > 0.0

    def test_strict_geq_committed(self):
        # full apply windows always dominate post-commit residuals
        lam = 20.0
        full = [0.001, 0.003, 0.005, 0.012, 0.018]
        residual = [max(x - full[0], 0.0) for x in full]
        for r in range(1, 6):
            s = per_key_stale_probability_strict(lam, r, full)
            c = per_key_stale_probability(lam, r, 1, residual)
            assert s >= c - 1e-12

    def test_monotone_decreasing_in_read_level(self):
        probs = [
            per_key_stale_probability_strict(20.0, r, WINDOWS5) for r in range(1, 6)
        ]
        for a, b in zip(probs, probs[1:]):
            assert a >= b - 1e-12

    def test_validation(self):
        with pytest.raises(ConfigError):
            per_key_stale_probability_strict(1.0, 0, WINDOWS5)
        with pytest.raises(ConfigError):
            per_key_stale_probability_strict(1.0, 1, [])


class TestExponentialClosedForm:
    def test_formula(self):
        lam, theta, rf = 10.0, 0.01, 5
        for r in (1, 2):
            avoid = math.comb(rf - 1, r) / math.comb(rf, r)
            expected = avoid * lam * theta / (lam * theta + r)
            assert closed_form_exponential(lam, r, 1, rf, theta) == pytest.approx(
                expected
            )

    def test_quorum_zero(self):
        assert closed_form_exponential(10.0, 3, 3, 5, 0.01) == 0.0

    def test_degenerate(self):
        assert closed_form_exponential(0.0, 1, 1, 3, 0.01) == 0.0
        assert closed_form_exponential(10.0, 1, 1, 3, 0.0) == 0.0


class TestSystemAggregation:
    def test_uniform_profile(self):
        params = StaleModelParams(
            write_rate=100.0,
            windows=WINDOWS5,
            key_profile=[(0.01, 0.01, 100)],  # 100 uniform keys
            strict=False,
        )
        per_key = per_key_stale_probability(1.0, 1, 1, WINDOWS5)
        assert system_stale_rate(params, 1, 1) == pytest.approx(per_key)

    def test_skew_increases_staleness(self):
        uniform = StaleModelParams(
            write_rate=100.0, windows=WINDOWS5,
            key_profile=[(0.01, 0.01, 100)], strict=True,
        )
        skewed = StaleModelParams(
            write_rate=100.0, windows=WINDOWS5,
            key_profile=[(0.5, 0.5, 1), (0.005, 0.005, 100)], strict=True,
        )
        assert system_stale_rate(skewed, 1, 1) > system_stale_rate(uniform, 1, 1)

    def test_empty_profile(self):
        params = StaleModelParams(
            write_rate=10.0, windows=WINDOWS5, key_profile=[]
        )
        assert system_stale_rate(params, 1, 1) == 0.0

    def test_rf_window_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            StaleModelParams(
                write_rate=1.0, windows=[0.0, 0.1], key_profile=[(1, 1, 1)], rf=5
            )


class TestParamsFromSnapshot:
    def _snap(self, acks, write_rate=10.0):
        from repro.monitor.collector import MonitorSnapshot

        return MonitorSnapshot(
            t=1.0,
            read_rate=20.0,
            write_rate=write_rate,
            ack_rank_means=acks,
            key_profile=[(1.0, 1.0, 1)],
            read_latency=0.001,
            write_latency=0.001,
        )

    def test_strict_uses_full_ack_delays(self):
        p = params_from_snapshot(self._snap([0.001, 0.01]), 1, fallback_rf=2)
        assert list(p.windows) == [0.001, 0.01]
        assert p.strict

    def test_committed_uses_residuals(self):
        p = params_from_snapshot(
            self._snap([0.001, 0.01]), 1, fallback_rf=2, strict=False
        )
        assert list(p.windows) == pytest.approx([0.0, 0.009])

    def test_cold_start_fallback(self):
        p = params_from_snapshot(self._snap([]), 1, fallback_rf=3, fallback_window=0.05)
        assert p.rf == 3
        assert list(p.windows) == [0.05] * 3


class TestDeploymentInfo:
    def _info(self):
        return DeploymentInfo(
            coordinator_share=[0.6, 0.4],
            rf_per_dc=[3, 2],
            delay=[[0.0002, 0.010], [0.010, 0.0002]],
            write_service=0.0005,
            read_service=0.0007,
        )

    def test_shares_normalized(self):
        info = DeploymentInfo(
            coordinator_share=[3, 2],
            rf_per_dc=[1, 1],
            delay=[[0.0, 0.01], [0.01, 0.0]],
            write_service=0.0,
            read_service=0.0,
        )
        assert sum(info.coordinator_share) == pytest.approx(1.0)

    def test_alignment_checked(self):
        with pytest.raises(ConfigError):
            DeploymentInfo([1.0], [1, 1], [[0.0]], 0.0, 0.0)

    def test_dc_model_properties(self):
        info = self._info()
        # level 5 contacts both DCs: one of them always has the write locally
        assert per_key_stale_dc(info, 100.0, 5) == pytest.approx(0.0, abs=1e-6)
        # level 1 is exposed to the WAN window
        p1 = per_key_stale_dc(info, 100.0, 1)
        assert p1 > 0.1
        # monotone in read level
        probs = [per_key_stale_dc(info, 100.0, r) for r in range(1, 6)]
        for a, b in zip(probs, probs[1:]):
            assert a >= b - 1e-9

    def test_local_reads_blind_to_remote_commits(self):
        # r=3 keeps a dc0 reader fully local: dc1-coordinated writes are
        # invisible for the WAN delay, so staleness stays high (the effect
        # the uniform-subset model misses).
        info = self._info()
        p3 = per_key_stale_dc(info, 100.0, 3)
        p4 = per_key_stale_dc(info, 100.0, 4)
        assert p3 > 0.05
        assert p4 == pytest.approx(0.0, abs=1e-6)

    def test_from_store(self, store):
        info = DeploymentInfo.from_store(store)
        assert info.rf_per_dc == [2, 1]
        assert info.n_dcs == 2
        assert info.rf_total == 3
        assert info.delay[0][1] == pytest.approx(0.010)
        assert info.delay[0][0] == pytest.approx(0.0002)

    def test_system_aggregation(self):
        info = self._info()
        profile = [(0.5, 0.5, 1), (0.005, 0.005, 100)]
        p = system_stale_rate_dc(info, 100.0, profile, 1)
        assert 0.0 < p <= 1.0
        assert system_stale_rate_dc(info, 100.0, [], 1) == 0.0

    def test_validation(self):
        info = self._info()
        with pytest.raises(ConfigError):
            per_key_stale_dc(info, -1.0, 1)
        with pytest.raises(ConfigError):
            per_key_stale_dc(info, 1.0, 9)


# -- the estimators as first written: one per-key call per profile row ----------


def _old_per_key_committed(write_rate, read_level, write_level, windows):
    rf = len(windows)
    if rf < 1:
        raise ConfigError(f"rf must be >= 1, got {rf}")
    if not (1 <= read_level <= rf):
        raise ConfigError(f"read_level {read_level} outside 1..{rf}")
    if not (1 <= write_level <= rf):
        raise ConfigError(f"write_level {write_level} outside 1..{rf}")
    if write_rate < 0:
        raise ConfigError(f"write_rate must be >= 0, got {write_rate}")
    if write_rate == 0.0:
        return 0.0
    r, w = read_level, write_level
    if r + w > rf:
        return 0.0
    laggards = sorted(windows)[w:]
    m = len(laggards)
    if r > m:
        return 0.0
    avoid = math.comb(rf - w, r) / math.comb(rf, r)
    total_subsets = math.comb(m, r)
    acc = 0.0
    for j, v in enumerate(laggards, start=1):
        weight = math.comb(m - j, r - 1) / total_subsets
        if weight == 0.0:
            continue
        acc += weight * (-math.expm1(-write_rate * v))
    return avoid * acc


def _old_per_key_strict(write_rate, read_level, windows):
    rf = len(windows)
    if rf < 1:
        raise ConfigError("need at least one window")
    if not (1 <= read_level <= rf):
        raise ConfigError(f"read_level {read_level} outside 1..{rf}")
    if write_rate < 0:
        raise ConfigError(f"write_rate must be >= 0, got {write_rate}")
    if write_rate == 0.0:
        return 0.0
    r = read_level
    ordered = sorted(windows)
    total_subsets = math.comb(rf, r)
    acc = 0.0
    for j, v in enumerate(ordered, start=1):
        weight = math.comb(rf - j, r - 1) / total_subsets
        if weight == 0.0:
            continue
        acc += weight * (-math.expm1(-write_rate * v))
    return acc


def _old_system(params, read_level, write_level):
    if not params.key_profile:
        return 0.0
    acc = 0.0
    for read_share, write_share, mult in params.key_profile:
        if read_share <= 0.0:
            continue
        lam_key = params.write_rate * write_share
        if params.strict:
            p = _old_per_key_strict(lam_key, read_level, params.windows)
        else:
            p = _old_per_key_committed(lam_key, read_level, write_level, params.windows)
        acc += read_share * mult * p
    return min(acc, 1.0)


def _old_per_key_dc(info, write_rate, read_level):
    if write_rate < 0:
        raise ConfigError(f"write_rate must be >= 0, got {write_rate}")
    if not (1 <= read_level <= info.rf_total):
        raise ConfigError(f"read_level {read_level} outside 1..{info.rf_total}")
    if write_rate == 0.0:
        return 0.0
    acc = 0.0
    for d, p_read in enumerate(info.coordinator_share):
        if p_read <= 0:
            continue
        remaining = read_level
        order = sorted(
            range(info.n_dcs), key=lambda e: (e != d, info.delay[d][e])
        )
        contacted = []
        for e in order:
            take = min(remaining, info.rf_per_dc[e])
            if take > 0:
                contacted.append(e)
                remaining -= take
            if remaining == 0:
                break
        for d2, p_write in enumerate(info.coordinator_share):
            if p_write <= 0:
                continue
            window = math.inf
            for e in contacted:
                apply_at = info.delay[d2][e] + info.write_service
                read_arrives = info.delay[d][e] + info.read_service
                window = min(window, max(apply_at - read_arrives, 0.0))
            acc += p_read * p_write * (-math.expm1(-write_rate * window))
    return min(acc, 1.0)


def _old_system_dc(info, write_rate, key_profile, read_level):
    if not key_profile:
        return 0.0
    acc = 0.0
    for read_share, write_share, mult in key_profile:
        if read_share <= 0:
            continue
        p = _old_per_key_dc(info, write_rate * write_share, read_level)
        acc += read_share * mult * p
    return min(acc, 1.0)


def _same_outcome(new, old):
    """``new()`` returns exactly what ``old()`` returns, or both raise."""
    try:
        want = old()
    except ConfigError:
        with pytest.raises(ConfigError):
            new()
        return
    got = new()
    assert got == want and repr(got) == repr(want)


# Hypothesis draws a seed and a generator draws the case from it: hypothesis'
# own float and index draws crowd onto range ends (zero windows, level 1),
# where almost every estimate is 0.


def _signed(rng, scale):
    """Mostly uniform below ``scale``; one draw in ten 0, one in ten negative."""
    u = rng.random()
    if u < 0.1:
        return 0.0
    return -0.25 * scale if u < 0.2 else float(rng.uniform(0.0, scale))


def _profile(rng):
    rows = int(rng.choice([0, 1, 2, 3, 5, 8]))
    return [
        (_signed(rng, 1.0), _signed(rng, 1.0), int(rng.integers(1, 600)))
        for _ in range(rows)
    ]


def _level(rng, rf):
    """Mostly in ``1..rf``; one draw in five anywhere in ``0..rf+1``."""
    if rng.random() < 0.2:
        return int(rng.integers(0, rf + 2))
    return int(rng.integers(1, max(rf, 1) + 1))


def _deployment(rng):
    n = int(rng.integers(1, 5))
    shares = rng.choice([0.0, 0.0, 0.1, 0.5, 1.0, 3.0], n).tolist()
    if sum(shares) <= 0:
        shares[int(rng.integers(n))] = 1.0
    rf = rng.integers(0, 4, n).tolist()
    if sum(rf) == 0:
        rf[int(rng.integers(n))] = 1
    delay = rng.uniform(0.0, 0.02, (n, n))
    np.fill_diagonal(delay, rng.uniform(0.0, 0.001, n))
    return DeploymentInfo(
        coordinator_share=shares,
        rf_per_dc=rf,
        delay=delay.tolist(),
        write_service=float(rng.uniform(0.0, 0.002)),
        read_service=float(rng.uniform(0.0, 0.002)),
    )


_seeds = st.integers(0, 2**32 - 1)


class TestEstimatorsAreTheirPerKeyLoops:
    @given(_seeds)
    @settings(max_examples=500, deadline=None)
    def test_dc_model(self, seed):
        rng = np.random.default_rng(seed)
        info = _deployment(rng)
        write_rate = _signed(rng, 500.0)
        profile = _profile(rng)
        level = _level(rng, info.rf_total)
        _same_outcome(
            lambda: system_stale_rate_dc(info, write_rate, profile, level),
            lambda: _old_system_dc(info, write_rate, profile, level),
        )
        _same_outcome(
            lambda: per_key_stale_dc(info, write_rate, level),
            lambda: _old_per_key_dc(info, write_rate, level),
        )

    @given(_seeds, st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_single_dc_model(self, seed, strict):
        rng = np.random.default_rng(seed)
        rf = int(rng.integers(0, 8))
        windows = rng.uniform(0.0, 0.02, rf)
        windows[rng.random(rf) < 0.2] = 0.0  # synchronous ranks
        windows = windows.tolist()
        write_rate = _signed(rng, 500.0)
        profile = _profile(rng)
        r, w = _level(rng, rf), _level(rng, rf)
        params = StaleModelParams(write_rate, windows, profile, strict=strict)
        _same_outcome(
            lambda: system_stale_rate(params, r, w),
            lambda: _old_system(params, r, w),
        )
        _same_outcome(
            lambda: per_key_stale_probability(write_rate, r, w, windows),
            lambda: _old_per_key_committed(write_rate, r, w, windows),
        )
        _same_outcome(
            lambda: per_key_stale_probability_strict(write_rate, r, windows),
            lambda: _old_per_key_strict(write_rate, r, windows),
        )

    def test_all_zero_or_empty_profile_is_zero_even_at_a_bad_level(self):
        info = TestDeploymentInfo()._info()
        zero = [(0.0, 0.5, 3), (-0.1, 1.0, 1)]
        assert system_stale_rate_dc(info, 10.0, zero, 99) == 0.0
        assert system_stale_rate_dc(info, -10.0, [], 99) == 0.0
        params = StaleModelParams(10.0, WINDOWS5, zero)
        assert system_stale_rate(params, 99, 99) == 0.0

    def test_errors_follow_the_first_positive_row(self):
        info = TestDeploymentInfo()._info()
        rows = [(0.0, 1.0, 1), (0.5, -1.0, 1)]
        with pytest.raises(ConfigError, match="write_rate"):
            system_stale_rate_dc(info, 10.0, rows, 99)  # rate before level
        with pytest.raises(ConfigError, match="read_level"):
            system_stale_rate(StaleModelParams(10.0, WINDOWS5, rows), 99, 1)


def _engine_branch(snapshot, rf, write_level, deployment):
    """The estimate branch both adaptive engines carried before
    :func:`forecast_stale` (``strict=True``, ``fallback_window=0.05``)."""
    if deployment is not None:
        profile = snapshot.key_profile or [(1.0, 1.0, 1)]
        return [
            system_stale_rate_dc(deployment, snapshot.write_rate, profile, r)
            for r in range(1, rf + 1)
        ]
    params = params_from_snapshot(
        snapshot,
        write_level=write_level,
        fallback_rf=rf,
        fallback_window=0.05,
        strict=True,
    )
    if params.rf != rf:
        windows = list(params.windows)
        pad = max(windows) if windows else 0.05
        while len(windows) < rf:
            windows.append(pad)
        params.windows = windows[:rf]
        params.rf = rf
    return [system_stale_rate(params, r, write_level) for r in range(1, rf + 1)]


class TestForecastStale:
    """``forecast_stale`` is the engines' former estimate branch, bit for bit."""

    @given(
        _seeds,
        st.sampled_from(["cold", "short", "exact", "long"]),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_is_the_engine_branch(self, seed, acks, with_deployment, empty_keys):
        rng = np.random.default_rng(seed)
        deployment = _deployment(rng) if with_deployment else None
        rf = deployment.rf_total if deployment else int(rng.integers(1, 7))
        n_acks = {
            "cold": 0,
            "short": int(rng.integers(1, rf)) if rf > 1 else 0,
            "exact": rf,
            "long": rf + int(rng.integers(1, 3)),
        }[acks]
        rows = 0 if empty_keys else int(rng.integers(1, 6))
        snapshot = MonitorSnapshot(
            t=1.0,
            read_rate=100.0,
            write_rate=0.0 if rng.random() < 0.1 else float(rng.uniform(0, 500)),
            ack_rank_means=np.sort(rng.uniform(0.0, 0.02, n_acks)).tolist(),
            key_profile=[
                (float(rng.random()), float(rng.random()), int(rng.integers(1, 600)))
                for _ in range(rows)
            ],
            read_latency=0.001,
            write_latency=0.001,
        )
        w = int(rng.integers(1, rf + 1))
        got = forecast_stale(snapshot, rf, w, deployment)
        assert len(got) == rf
        assert got == _engine_branch(snapshot, rf, w, deployment)


class TestMonteCarloAgreement:
    def test_deterministic_windows_match_closed_form(self):
        base = np.array([0.001, 0.01, 0.02, 0.05, 0.08])

        def sampler(rng, n):
            return np.tile(base, (n, 1))

        lam = 4.0
        mc = MonteCarloStaleEstimator(
            write_rate=lam, read_rate=80.0, rf=5, delay_sampler=sampler, rng=1
        )
        for w in (1, 2):
            windows = np.maximum(base - np.sort(base)[w - 1], 0.0)
            for r in (1, 2, 3):
                cf = per_key_stale_probability(lam, r, w, windows)
                est = mc.estimate(r, w, horizon=300.0)
                assert est == pytest.approx(cf, abs=0.02)

    def test_quorum_zero_exact(self):
        mc = MonteCarloStaleEstimator(write_rate=10.0, read_rate=50.0, rf=3, rng=0)
        assert mc.estimate(2, 2, horizon=100.0) == 0.0

    def test_matrix_shape_and_monotonicity(self):
        mc = MonteCarloStaleEstimator(write_rate=10.0, read_rate=100.0, rf=4, rng=2)
        mat = mc.estimate_matrix(1, horizon=150.0)
        assert mat.shape == (4,)
        assert mat[0] >= mat[-1]

    def test_validation(self):
        with pytest.raises(ConfigError):
            MonteCarloStaleEstimator(write_rate=0.0, read_rate=1.0, rf=3)
        mc = MonteCarloStaleEstimator(write_rate=1.0, read_rate=1.0, rf=3)
        with pytest.raises(ConfigError):
            mc.estimate(0, 1)
