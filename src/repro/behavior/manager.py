"""The customized-consistency runtime: offline model + live policy switcher.

- :class:`BehaviorModel` -- the *offline* artifact: trace -> timeline ->
  clustering -> states -> per-state policy recipes (one call:
  :meth:`BehaviorModel.fit`);
- :class:`BehaviorPolicy` -- the *runtime* object: a
  :class:`~repro.policy.ConsistencyPolicy` that periodically classifies the
  application's current state from the monitor and delegates every
  operation to the state's assigned policy (instantiating Harmony engines
  and static policies on first use).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.cluster.consistency import ConsistencyLevel, LevelSpec
from repro.behavior.classifier import StateClassifier
from repro.behavior.clustering import KMeansResult, choose_k, KMeans
from repro.behavior.rules import PolicyAssignment, RuleBook, default_rulebook
from repro.behavior.states import StateModel
from repro.behavior.timeline import Timeline, build_timeline
from repro.harmony.engine import HarmonyEngine
from repro.monitor.collector import ClusterMonitor
from repro.policy import StaticPolicy
from repro.workload.traces import TraceRecord

__all__ = ["BehaviorModel", "BehaviorPolicy"]


@dataclass
class BehaviorModel:
    """The fitted offline model: everything the runtime needs."""

    timeline: Timeline
    clustering: KMeansResult
    states: StateModel
    assignments: Dict[int, PolicyAssignment]

    @classmethod
    def fit(
        cls,
        trace: Sequence[TraceRecord],
        window: float = 10.0,
        rulebook: Optional[RuleBook] = None,
        k: Optional[int] = None,
        k_range: Sequence[int] = (2, 3, 4, 5, 6),
        rng: int = 0,
    ) -> "BehaviorModel":
        """Run the full offline pipeline on a trace.

        ``k=None`` selects the state count by silhouette over ``k_range``.
        """
        timeline = build_timeline(trace, window)
        if k is not None:
            clustering = KMeans(k, rng=rng).fit(timeline.matrix)
        else:
            clustering = choose_k(timeline.matrix, k_range=k_range, rng=rng)
        states = StateModel(timeline, clustering)
        book = rulebook or default_rulebook()
        assignments = book.assign_all(states)
        return cls(
            timeline=timeline,
            clustering=clustering,
            states=states,
            assignments=assignments,
        )

    @property
    def k(self) -> int:
        """Number of identified application states."""
        return self.clustering.k

    def classifier(self) -> StateClassifier:
        """Runtime classifier bound to this model."""
        return StateClassifier(self.timeline, self.clustering)

    def describe(self) -> str:
        """Readable multi-line summary (states, profiles, recipes)."""
        lines = [f"BehaviorModel: {self.k} states"]
        for s in self.states.summaries:
            recipe = self.assignments[s.state_id]
            lines.append(
                f"  state {s.state_id}: {s.time_fraction:5.1%} of time, "
                f"rate={s['op_rate']:.0f}/s, reads={s['read_fraction']:.0%}, "
                f"skew={s['key_skew']:.2f} -> {recipe.label()} [{recipe.rule_name}]"
            )
        return "\n".join(lines)


class BehaviorPolicy:
    """Per-state policy switching at runtime.

    Parameters
    ----------
    model:
        A fitted :class:`BehaviorModel`.
    monitor:
        Live cluster monitor (attached to the target store by the caller).
    rf:
        Replication factor (needed to instantiate Harmony recipes).
    update_interval:
        Seconds between state re-classifications.
    """

    def __init__(
        self,
        model: BehaviorModel,
        monitor: ClusterMonitor,
        rf: int,
        update_interval: float = 5.0,
    ):
        if rf < 1:
            raise ConfigError(f"rf must be >= 1, got {rf}")
        if update_interval <= 0:
            raise ConfigError(f"update_interval must be positive, got {update_interval}")
        self.model = model
        self.monitor = monitor
        self.rf = int(rf)
        self.update_interval = float(update_interval)
        self._classifier = model.classifier()
        self._policies: Dict[int, object] = {}
        self._state = -1
        self._active: Optional[object] = None
        self._last_update = -float("inf")
        #: (time, state) history of classifications, for post-run analysis.
        self.state_history: List[Tuple[float, int]] = []

    # -- recipe instantiation ------------------------------------------------------

    def _instantiate(self, assignment: PolicyAssignment):
        kind = assignment.kind
        if kind == "eventual":
            return StaticPolicy(ConsistencyLevel.ONE, ConsistencyLevel.ONE, name="eventual")
        if kind == "quorum":
            return StaticPolicy(
                ConsistencyLevel.QUORUM, ConsistencyLevel.QUORUM, name="quorum"
            )
        if kind == "strong":
            return StaticPolicy(ConsistencyLevel.ALL, ConsistencyLevel.ALL, name="strong")
        if kind == "geographic":
            # Geographical policy: coordinate within the local datacenter only
            # (low-latency quorum in the client's own region).
            return StaticPolicy(
                ConsistencyLevel.LOCAL_QUORUM,
                ConsistencyLevel.LOCAL_QUORUM,
                name="geographic",
            )
        if kind == "harmony":
            tolerance = assignment.params.get("tolerance", 0.10)
            return HarmonyEngine(
                self.monitor,
                tolerance=tolerance,
                rf=self.rf,
            )
        raise ConfigError(f"unknown recipe kind {kind!r}")  # pragma: no cover

    def _policy_for(self, state: int):
        got = self._policies.get(state)
        if got is None:
            got = self._instantiate(self.model.assignments[state])
            self._policies[state] = got
        return got

    def _maybe_reclassify(self, now: float) -> None:
        if now - self._last_update < self.update_interval:
            return
        self._last_update = now
        state = self._classifier.classify_monitor(self.monitor, now)
        if state != self._state:
            self._state = state
            self._active = self._policy_for(state)
        self.state_history.append((now, state))

    # -- ConsistencyPolicy interface ---------------------------------------------------

    @property
    def name(self) -> str:
        return f"behavior(k={self.model.k})"

    @property
    def current_state(self) -> int:
        """Most recently classified state (-1 before the first decision)."""
        return self._state

    def read_level(self, now: float) -> LevelSpec:
        self._maybe_reclassify(now)
        if self._active is None:
            return 1
        return self._active.read_level(now)

    def write_level(self, now: float) -> LevelSpec:
        self._maybe_reclassify(now)
        if self._active is None:
            return 1
        return self._active.write_level(now)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BehaviorPolicy(k={self.model.k}, state={self._state}, "
            f"switches={len(self.state_history)})"
        )
