"""The application timeline: the per-window feature matrix.

A thin, explicit container between feature extraction and clustering:
rows are windows (time-ordered), columns are the features of
:data:`repro.behavior.features.FEATURE_NAMES`. Standardization (z-scoring
with frozen statistics) lives here because both the offline clustering and
the *runtime classifier* must apply exactly the same transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.common.errors import ConfigError
from repro.behavior.features import FEATURE_NAMES, WindowFeatures, extract_features
from repro.workload.traces import TraceRecord

__all__ = ["Timeline", "build_timeline"]


@dataclass
class Timeline:
    """Feature matrix plus the scaling statistics used to standardize it."""

    windows: List[WindowFeatures]
    matrix: np.ndarray  # (n_windows, n_features), standardized
    mean: np.ndarray
    std: np.ndarray

    @property
    def n_windows(self) -> int:
        """Number of time windows."""
        return len(self.windows)

    def raw_matrix(self) -> np.ndarray:
        """Un-standardized feature matrix."""
        return self.matrix * self.std + self.mean

    def standardize(self, raw: np.ndarray) -> np.ndarray:
        """Apply the timeline's frozen scaling to new raw feature vectors.

        This is what the runtime classifier calls: live windows must be
        scaled by the *training* statistics, never their own.
        """
        raw = np.asarray(raw, dtype=float)
        return (raw - self.mean) / self.std


def build_timeline(
    trace: Sequence[TraceRecord], window: float
) -> Timeline:
    """Extract features from a trace and standardize them.

    Constant features (zero variance) are scaled by 1.0 instead of 0 --
    they simply contribute nothing to distances, rather than NaNs.
    """
    feats = extract_features(trace, window)
    if not feats:
        raise ConfigError("trace produced no windows")
    raw = np.stack([f.vector() for f in feats])
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return Timeline(
        windows=feats,
        matrix=(raw - mean) / std,
        mean=mean,
        std=std,
    )
