"""Application states and their evolvement.

After clustering, each cluster is an application *state*. This module
summarizes states in raw (un-standardized) feature terms -- so rules can be
written against meaningful quantities like "write rate above 50/s" -- and
estimates the empirical state-transition matrix ("states evolvements of the
application during its lifetime", §III-C), which the evaluation uses to
check that recovered dynamics match the planted phase schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.common.errors import ConfigError
from repro.behavior.clustering import KMeansResult
from repro.behavior.features import FEATURE_NAMES
from repro.behavior.timeline import Timeline

__all__ = ["StateSummary", "StateModel"]


@dataclass(frozen=True)
class StateSummary:
    """One state's profile in raw feature units."""

    state_id: int
    n_windows: int
    time_fraction: float
    features: Dict[str, float]  # mean raw feature values

    def __getitem__(self, feature: str) -> float:
        return self.features[feature]


class StateModel:
    """States + transitions extracted from a clustered timeline."""

    def __init__(self, timeline: Timeline, clustering: KMeansResult):
        if clustering.labels.shape[0] != timeline.n_windows:
            raise ConfigError("clustering does not match the timeline")
        self.timeline = timeline
        self.clustering = clustering
        self.k = clustering.k
        self._summaries = self._summarize()
        self.transition_matrix = self._transitions()

    # -- construction ------------------------------------------------------------

    def _summarize(self) -> List[StateSummary]:
        raw = self.timeline.raw_matrix()
        labels = self.clustering.labels
        n = len(labels)
        out: List[StateSummary] = []
        for state in range(self.k):
            mask = labels == state
            count = int(mask.sum())
            means = (
                raw[mask].mean(axis=0) if count else np.zeros(raw.shape[1])
            )
            out.append(
                StateSummary(
                    state_id=state,
                    n_windows=count,
                    time_fraction=count / n,
                    features=dict(zip(FEATURE_NAMES, map(float, means))),
                )
            )
        return out

    def _transitions(self) -> np.ndarray:
        """Row-stochastic empirical transition matrix between states."""
        labels = self.clustering.labels
        mat = np.zeros((self.k, self.k), dtype=float)
        for a, b in zip(labels[:-1], labels[1:]):
            mat[a, b] += 1.0
        sums = mat.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            mat = np.where(sums > 0, mat / sums, 0.0)
        return mat

    # -- queries --------------------------------------------------------------------

    @property
    def summaries(self) -> List[StateSummary]:
        """Per-state profiles, indexed by state id."""
        return self._summaries

    def summary(self, state_id: int) -> StateSummary:
        """Profile of one state."""
        return self._summaries[state_id]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"s{s.state_id}:{s.time_fraction:.0%}" for s in self._summaries
        )
        return f"StateModel(k={self.k}, {parts})"
