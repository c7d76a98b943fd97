"""K-means clustering, from scratch (the pipeline's "machine learning step").

Implemented directly on NumPy (no sklearn in the dependency set):

- deterministic **k-means++** seeding from a caller-supplied generator;
- vectorized Lloyd iterations (distance matrix via the
  ``|x|^2 - 2xy + |y|^2`` expansion, no Python-level loops over points);
- empty-cluster repair (respawn on the farthest point);
- :func:`silhouette_score` and :func:`choose_k` for model selection -- the
  paper does not fix the number of application states, so the pipeline
  selects k by silhouette over a candidate range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import spawn_rng

__all__ = ["KMeansResult", "KMeans", "silhouette_score", "choose_k"]

#: Lloyd iterations per restart, at most; they stop early once no centroid
#: moves more than ``TOL``.
MAX_ITER = 100
TOL = 1e-7
#: Independent k-means++ restarts; the lowest-inertia fit wins.
N_INIT = 4


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (len(a), len(b)), fully vectorized."""
    a2 = np.einsum("ij,ij->i", a, a)[:, None]
    b2 = np.einsum("ij,ij->i", b, b)[None, :]
    d = a2 - 2.0 * (a @ b.T) + b2
    np.maximum(d, 0.0, out=d)
    return d


@dataclass
class KMeansResult:
    """Fitted clustering: centroids, assignments and inertia."""

    centroids: np.ndarray  # (k, n_features)
    labels: np.ndarray  # (n_points,)
    inertia: float
    iterations: int

    @property
    def k(self) -> int:
        """Number of clusters."""
        return self.centroids.shape[0]

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Nearest-centroid labels for new points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.argmin(_pairwise_sq_dists(points, self.centroids), axis=1)


class KMeans:
    """Lloyd's algorithm with k-means++ seeding.

    Parameters
    ----------
    k:
        Cluster count.
    rng:
        Seed or generator (deterministic by default).
    """

    def __init__(self, k: int, rng: "np.random.Generator | int | None" = None):
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        self.k = int(k)
        self.rng = spawn_rng(rng)

    # -- seeding -----------------------------------------------------------------

    def _seed_plus_plus(self, points: np.ndarray) -> np.ndarray:
        n = points.shape[0]
        centroids = np.empty((self.k, points.shape[1]), dtype=float)
        first = int(self.rng.integers(0, n))
        centroids[0] = points[first]
        closest = _pairwise_sq_dists(points, centroids[0:1]).ravel()
        for i in range(1, self.k):
            total = closest.sum()
            if total <= 0:
                # all points identical to chosen centroids: any choice works
                idx = int(self.rng.integers(0, n))
            else:
                probs = closest / total
                idx = int(self.rng.choice(n, p=probs))
            centroids[i] = points[idx]
            d_new = _pairwise_sq_dists(points, centroids[i : i + 1]).ravel()
            np.minimum(closest, d_new, out=closest)
        return centroids

    # -- fitting --------------------------------------------------------------------

    def _fit_once(self, points: np.ndarray) -> KMeansResult:
        centroids = self._seed_plus_plus(points)
        labels = np.zeros(points.shape[0], dtype=np.int64)
        for iteration in range(1, MAX_ITER + 1):
            dists = _pairwise_sq_dists(points, centroids)
            labels = np.argmin(dists, axis=1)
            new_centroids = np.empty_like(centroids)
            for c in range(self.k):
                members = points[labels == c]
                if members.shape[0] == 0:
                    # empty cluster: respawn on the globally farthest point
                    far = int(np.argmax(np.min(dists, axis=1)))
                    new_centroids[c] = points[far]
                else:
                    new_centroids[c] = members.mean(axis=0)
            shift = float(np.max(np.abs(new_centroids - centroids)))
            centroids = new_centroids
            if shift <= TOL:
                break
        dists = _pairwise_sq_dists(points, centroids)
        labels = np.argmin(dists, axis=1)
        inertia = float(dists[np.arange(points.shape[0]), labels].sum())
        return KMeansResult(
            centroids=centroids, labels=labels, inertia=inertia, iterations=iteration
        )

    def fit(self, points: np.ndarray) -> KMeansResult:
        """Fit on (n_points, n_features); best of ``N_INIT`` restarts."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ConfigError(f"points must be 2-D, got shape {points.shape}")
        if points.shape[0] < self.k:
            raise ConfigError(
                f"cannot make {self.k} clusters from {points.shape[0]} points"
            )
        best: Optional[KMeansResult] = None
        for _ in range(N_INIT):
            result = self._fit_once(points)
            if best is None or result.inertia < best.inertia:
                best = result
        assert best is not None
        return best


def silhouette_score(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient (vectorized, O(n^2) memory).

    Returns 0.0 for degenerate cases (single cluster, singleton clusters
    only) rather than raising -- model selection treats those as "no
    structure".
    """
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    if uniq.size < 2 or points.shape[0] != labels.shape[0]:
        return 0.0
    d = np.sqrt(_pairwise_sq_dists(points, points))
    n = points.shape[0]
    sil = np.zeros(n)
    for i in range(n):
        own = labels[i]
        mask_own = labels == own
        n_own = mask_own.sum()
        if n_own <= 1:
            sil[i] = 0.0
            continue
        a = d[i, mask_own].sum() / (n_own - 1)
        b = np.inf
        for c in uniq:
            if c == own:
                continue
            mask = labels == c
            b = min(b, d[i, mask].mean())
        denom = max(a, b)
        sil[i] = (b - a) / denom if denom > 0 else 0.0
    return float(sil.mean())


def choose_k(
    points: np.ndarray,
    k_range: Sequence[int] = (2, 3, 4, 5, 6),
    rng: "np.random.Generator | int | None" = None,
) -> KMeansResult:
    """Fit every k in ``k_range`` and keep the best silhouette.

    The paper leaves the number of application states open; silhouette
    selection recovers it from the data (verified on planted-phase traces
    in the tests and the E5 benchmark).
    """
    if not k_range:
        raise ConfigError("k_range must not be empty")
    base = spawn_rng(rng)
    best_result: Optional[KMeansResult] = None
    best_score = -np.inf
    for k in k_range:
        if k >= np.asarray(points).shape[0]:
            continue
        result = KMeans(k, rng=base).fit(points)
        score = silhouette_score(points, result.labels)
        if score > best_score:
            best_score = score
            best_result = result
    if best_result is None:
        raise ConfigError("no feasible k in k_range for this data size")
    return best_result
