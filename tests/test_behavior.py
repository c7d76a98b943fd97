"""Tests for the behavior-modeling pipeline (features through manager)."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.behavior.classifier import features_from_monitor
from repro.behavior.clustering import (
    MAX_ITER,
    N_INIT,
    KMeans,
    choose_k,
    silhouette_score,
)
from repro.behavior.features import FEATURE_NAMES, WindowFeatures, extract_features
from repro.behavior.manager import BehaviorModel, BehaviorPolicy
from repro.behavior.rules import PolicyAssignment, Rule, RuleBook, default_rulebook
from repro.behavior.states import StateModel
from repro.behavior.timeline import build_timeline
from repro.monitor.collector import ClusterMonitor
from repro.workload.traces import PhasedTraceGenerator, TracePhase, TraceRecord


def make_trace():
    return PhasedTraceGenerator([
        TracePhase("read-heavy", 60.0, rate=100.0, read_fraction=0.95,
                   hot_weight=0.3),
        TracePhase("write-heavy", 60.0, rate=100.0, read_fraction=0.10,
                   hot_weight=0.9, hot_fraction=0.05),
    ]).generate(cycles=2, seed=1)


class TestFeatures:
    def test_window_slicing(self):
        trace = [
            TraceRecord(t=0.5, kind="read", key="a"),
            TraceRecord(t=1.5, kind="write", key="a"),
            TraceRecord(t=1.7, kind="read", key="b"),
        ]
        feats = extract_features(trace, window=1.0)
        assert len(feats) == 2
        assert feats[0].op_rate == pytest.approx(1.0)
        assert feats[0].read_fraction == 1.0
        assert feats[1].op_rate == pytest.approx(2.0)
        assert feats[1].write_rate == pytest.approx(1.0)

    def test_empty_trace(self):
        assert extract_features([], 1.0) == []

    def test_empty_window_kept(self):
        trace = [
            TraceRecord(t=0.1, kind="read", key="a"),
            TraceRecord(t=2.5, kind="read", key="a"),
        ]
        feats = extract_features(trace, window=1.0)
        assert len(feats) == 3
        assert feats[1].op_rate == 0.0

    def test_skew_feature(self):
        hot = [TraceRecord(t=i * 0.01, kind="write", key="hot") for i in range(90)]
        cold = [TraceRecord(t=i * 0.01, kind="write", key=f"c{i}") for i in range(10)]
        trace = sorted(hot + cold, key=lambda r: r.t)
        f = extract_features(trace, window=1.0)[0]
        assert f.key_skew > 0.5  # highly concentrated
        assert f.hot_write_rate == pytest.approx(90.0, rel=0.05)

    def test_overlap_feature(self):
        trace = [
            TraceRecord(t=0.1, kind="read", key="a"),
            TraceRecord(t=0.2, kind="write", key="a"),
            TraceRecord(t=0.3, kind="read", key="b"),
        ]
        f = extract_features(trace, window=1.0)[0]
        assert f.rw_overlap == pytest.approx(0.5)  # {a} over {a, b}

    def test_vector_order(self):
        f = WindowFeatures(0, 1, 10.0, 0.5, 5.0, 0.2, 3.0, 0.4)
        assert list(f.vector()) == [10.0, 0.5, 5.0, 0.2, 3.0, 0.4]
        assert len(FEATURE_NAMES) == 6

    def test_validation(self):
        with pytest.raises(ConfigError):
            extract_features([TraceRecord(0.0, "read", "a")], window=0.0)


class TestTimeline:
    def test_standardization_roundtrip(self):
        tl = build_timeline(make_trace(), window=10.0)
        raw = tl.raw_matrix()
        again = tl.standardize(raw)
        assert np.allclose(again, tl.matrix)
        assert tl.n_windows == tl.matrix.shape[0]
        assert tl.matrix.shape[1] == len(FEATURE_NAMES)

    def test_standardized_moments(self):
        tl = build_timeline(make_trace(), window=10.0)
        assert np.allclose(tl.matrix.mean(axis=0), 0.0, atol=1e-9)
        stds = tl.matrix.std(axis=0)
        assert np.all((np.isclose(stds, 1.0)) | (np.isclose(stds, 0.0)))

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigError):
            build_timeline([], window=1.0)


class TestKMeans:
    def _blobs(self, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, 0.3, size=(40, 2))
        b = rng.normal(5.0, 0.3, size=(40, 2))
        c = rng.normal((0.0, 8.0), 0.3, size=(40, 2))
        return np.vstack([a, b, c])

    def test_validation(self):
        with pytest.raises(ConfigError):
            KMeans(0)
        with pytest.raises(ConfigError):
            KMeans(2).fit(np.zeros((1, 2)))
        with pytest.raises(ConfigError):
            KMeans(2).fit(np.zeros(5))

    def test_recovers_blobs(self):
        pts = self._blobs()
        result = KMeans(3, rng=0).fit(pts)
        assert result.k == 3
        # each true blob maps to exactly one cluster
        labels = result.labels
        assert len(set(labels[:40])) == 1
        assert len(set(labels[40:80])) == 1
        assert len(set(labels[80:])) == 1
        assert len({labels[0], labels[40], labels[80]}) == 3

    def test_inertia_decreases_with_k(self):
        pts = self._blobs()
        inertias = [KMeans(k, rng=0).fit(pts).inertia for k in (1, 2, 3)]
        assert inertias[0] > inertias[1] > inertias[2]

    def test_predict_assigns_nearest(self):
        pts = self._blobs()
        result = KMeans(3, rng=0).fit(pts)
        lab = result.predict(np.array([[5.0, 5.0]]))
        assert lab[0] == result.labels[40]  # the (5, 5) blob's cluster

    def test_deterministic(self):
        pts = self._blobs()
        a = KMeans(3, rng=7).fit(pts)
        b = KMeans(3, rng=7).fit(pts)
        assert np.array_equal(a.labels, b.labels)

    def test_fit_keeps_the_lowest_inertia_restart(self):
        # overlapping blobs, so k-means++ restarts land in different optima
        pts = np.random.default_rng(3).normal(0.0, 1.0, size=(120, 2))
        restarts = KMeans(4, rng=5)
        fits = [restarts._fit_once(pts) for _ in range(N_INIT)]
        best = KMeans(4, rng=5).fit(pts)
        assert best.inertia == min(f.inertia for f in fits)
        assert all(1 <= f.iterations <= MAX_ITER for f in fits)

    def test_identical_points(self):
        pts = np.ones((10, 2))
        result = KMeans(2, rng=0).fit(pts)
        assert result.inertia == pytest.approx(0.0)

    def test_silhouette_separated_vs_mixed(self):
        pts = self._blobs()
        good = KMeans(3, rng=0).fit(pts)
        s_good = silhouette_score(pts, good.labels)
        rng = np.random.default_rng(0)
        s_bad = silhouette_score(pts, rng.integers(0, 3, size=len(pts)))
        assert s_good > 0.7
        assert s_good > s_bad

    def test_silhouette_degenerate(self):
        pts = self._blobs()
        assert silhouette_score(pts, np.zeros(len(pts), dtype=int)) == 0.0

    def test_choose_k_finds_three(self):
        pts = self._blobs()
        result = choose_k(pts, k_range=(2, 3, 4, 5), rng=0)
        assert result.k == 3

    def test_choose_k_validation(self):
        with pytest.raises(ConfigError):
            choose_k(np.zeros((5, 2)), k_range=())
        with pytest.raises(ConfigError):
            choose_k(np.zeros((2, 2)), k_range=(5,))


class TestStatesAndRules:
    def _model(self):
        tl = build_timeline(make_trace(), window=10.0)
        clustering = KMeans(2, rng=0).fit(tl.matrix)
        return StateModel(tl, clustering)

    def test_summaries(self):
        model = self._model()
        assert len(model.summaries) == 2
        assert sum(s.time_fraction for s in model.summaries) == pytest.approx(1.0)
        # the two planted regimes differ strongly in read fraction
        fracs = sorted(s["read_fraction"] for s in model.summaries)
        assert fracs[0] < 0.3 and fracs[1] > 0.8

    def test_summary_by_state_id(self):
        model = self._model()
        for i, s in enumerate(model.summaries):
            assert model.summary(i) is s
            assert s.state_id == i
        assert sum(s.n_windows for s in model.summaries) == model.timeline.n_windows

    def test_transition_matrix_stochastic(self):
        model = self._model()
        sums = model.transition_matrix.sum(axis=1)
        for s in sums:
            assert s == pytest.approx(1.0) or s == 0.0

    def test_rulebook_priority(self):
        book = RuleBook(default=PolicyAssignment("eventual"))
        book.add(Rule("low", lambda s: True, PolicyAssignment("strong"), priority=10))
        book.add(Rule("high", lambda s: True, PolicyAssignment("quorum"), priority=1))
        model = self._model()
        got = book.assign(model.summaries[0])
        assert got.kind == "quorum"
        assert got.rule_name == "high"

    def test_custom_rules_outrank_generic(self):
        book = default_rulebook()
        book.add_custom(
            "admin-override", lambda s: True, PolicyAssignment("strong")
        )
        model = self._model()
        for s in model.summaries:
            assert book.assign(s).kind == "strong"

    def test_default_when_nothing_matches(self):
        book = RuleBook(default=PolicyAssignment("harmony", {"tolerance": 0.2}))
        model = self._model()
        got = book.assign(model.summaries[0])
        assert got.kind == "harmony"
        assert got.rule_name == "default"

    def test_default_rulebook_assigns_sensibly(self):
        model = self._model()
        assignments = default_rulebook().assign_all(model)
        by_read_frac = {
            s.state_id: s["read_fraction"] for s in model.summaries
        }
        for sid, assignment in assignments.items():
            if by_read_frac[sid] < 0.4:
                assert assignment.kind == "quorum"  # write-heavy rule

    def test_unknown_recipe_rejected(self):
        with pytest.raises(ConfigError):
            PolicyAssignment("turbo")

    def test_assignment_label(self):
        a = PolicyAssignment("harmony", {"tolerance": 0.05})
        assert a.label() == "harmony(tolerance=0.05)"
        assert PolicyAssignment("quorum").label() == "quorum"


class TestBehaviorModelAndPolicy:
    def test_fit_pipeline(self):
        model = BehaviorModel.fit(make_trace(), window=10.0, k_range=(2, 3, 4))
        assert model.k >= 2
        assert set(model.assignments) == set(range(model.k))
        assert "states" in model.describe() or "state" in model.describe()

    def test_fit_fixed_k(self):
        model = BehaviorModel.fit(make_trace(), window=10.0, k=2)
        assert model.k == 2

    def test_classifier_roundtrip(self):
        model = BehaviorModel.fit(make_trace(), window=10.0, k=2)
        clf = model.classifier()
        # every training window, featurized again, lands in its own cluster
        labels = [clf.classify_features(w) for w in model.timeline.windows]
        assert np.array_equal(labels, model.clustering.labels)

    def test_features_from_monitor(self):
        m = ClusterMonitor(window=5.0)
        from tests.test_harmony import feed_monitor

        feed_monitor(m, write_rate=45.0, acks=[0.001, 0.002, 0.003], key="hot")
        for i in range(20):
            feed_monitor(
                m, write_rate=0.4, acks=[0.001, 0.002, 0.003], key=f"cold{i}"
            )
        f = features_from_monitor(m, now=5.0)
        assert f.op_rate > 0
        assert 0.0 <= f.read_fraction <= 1.0
        assert f.key_skew > 0.5  # one hot key among many cold ones
        assert f.rw_overlap == 1.0

    def test_policy_switches_states(self, store):
        from repro.workload.traces import replay_trace

        trace = make_trace()
        model = BehaviorModel.fit(trace, window=10.0, k=2)
        monitor = ClusterMonitor(window=5.0)
        store.observe(monitor)
        policy = BehaviorPolicy(model, monitor, rf=3, update_interval=2.0)
        store.preload([f"user{i}" for i in range(1000)], 100)
        replay_trace(store, trace, policy)
        store.sim.run()
        assert policy.current_state in range(model.k)
        states_seen = {s for _, s in policy.state_history}
        assert len(states_seen) == 2  # both planted regimes classified
        assert store.ops_completed() > 0

    def test_policy_name_and_state_before_first_decision(self):
        model = BehaviorModel.fit(make_trace(), window=10.0, k=2)
        policy = BehaviorPolicy(model, ClusterMonitor(), rf=3)
        assert policy.name == "behavior(k=2)"
        assert policy.current_state == -1
        assert policy.state_history == []

    def test_policy_validation(self):
        model = BehaviorModel.fit(make_trace(), window=10.0, k=2)
        with pytest.raises(ConfigError):
            BehaviorPolicy(model, ClusterMonitor(), rf=0)

    def test_policy_instantiates_each_recipe_once(self):
        model = BehaviorModel.fit(make_trace(), window=10.0, k=2)
        policy = BehaviorPolicy(model, ClusterMonitor(), rf=3)
        p1 = policy._policy_for(0)
        assert policy._policy_for(0) is p1

    def test_recipe_instantiation_kinds(self):
        model = BehaviorModel.fit(make_trace(), window=10.0, k=2)
        policy = BehaviorPolicy(model, ClusterMonitor(), rf=3)
        for kind, params in (
            ("eventual", {}),
            ("quorum", {}),
            ("strong", {}),
            ("geographic", {}),
            ("harmony", {"tolerance": 0.1}),
        ):
            built = policy._instantiate(PolicyAssignment(kind, params))
            assert hasattr(built, "read_level")
