"""One-way network delay models.

Latency models map a random stream to per-message one-way delays. The WAN
model of record is :class:`LogNormalLatency`: wide-area RTT distributions are
well described by a lognormal body with a heavy right tail, and that tail is
precisely what creates long update-propagation windows -- the paper's stale
reads. Deterministic and empirical models exist for tests and trace replay.

Batch sampling (``sample_batch``) is provided for vectorized consumers
(Monte-Carlo estimator), per the hpc-parallel guide's "vectorize the hot
loop" rule.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.common.errors import ConfigError

__all__ = [
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "LogNormalLatency",
    "EmpiricalLatency",
]


class LatencyModel:
    """Abstract one-way delay model.

    Subclasses implement :meth:`sample` (one delay) and may override
    :meth:`sample_batch` (vectorized) and :meth:`mean`.
    """

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one one-way delay in seconds."""
        raise NotImplementedError

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` delays; default loops, subclasses vectorize."""
        return np.array([self.sample(rng) for _ in range(n)], dtype=float)

    def mean(self) -> float:
        """Expected delay in seconds (used by analytical estimators)."""
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """Deterministic delay; the workhorse of unit tests."""

    def __init__(self, delay: float):
        if delay < 0:
            raise ConfigError(f"delay must be >= 0, got {delay}")
        self.delay = float(delay)

    def sample(self, rng: np.random.Generator) -> float:
        return self.delay

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.delay)

    def mean(self) -> float:
        return self.delay

    def __repr__(self) -> str:  # pragma: no cover
        return f"FixedLatency({self.delay})"


class UniformLatency(LatencyModel):
    """Uniform delay on ``[lo, hi]``; useful for bounded-jitter scenarios."""

    def __init__(self, lo: float, hi: float):
        if not (0 <= lo <= hi):
            raise ConfigError(f"need 0 <= lo <= hi, got lo={lo}, hi={hi}")
        self.lo, self.hi = float(lo), float(hi)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.lo, self.hi))

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=n)

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __repr__(self) -> str:  # pragma: no cover
        return f"UniformLatency({self.lo}, {self.hi})"


class LogNormalLatency(LatencyModel):
    """Lognormal delay with an optional propagation floor.

    ``delay = floor + LogNormal(mu, sigma)``. The floor models the
    speed-of-light component of a WAN path (cannot be beaten by luck); the
    lognormal models serialization, queueing and kernel jitter.

    Construct from distribution parameters or, more conveniently, from the
    target mean and coefficient of variation via :meth:`from_mean_cv`.

    :class:`~repro.net.transport.Network` computes the delay of a link of
    exactly this class as ``floor + exp(mu + sigma * z)`` from a block of
    the stream's standard normals -- the same value :meth:`sample` draws,
    which stays the reference the tests compare against. A subclass that
    overrides :meth:`sample` is sampled through it.
    """

    def __init__(self, mu: float, sigma: float, floor: float = 0.0):
        if sigma < 0:
            raise ConfigError(f"sigma must be >= 0, got {sigma}")
        if floor < 0:
            raise ConfigError(f"floor must be >= 0, got {floor}")
        self.mu, self.sigma, self.floor = float(mu), float(sigma), float(floor)

    @classmethod
    def from_mean_cv(
        cls, mean: float, cv: float = 0.5, floor_fraction: float = 0.5
    ) -> "LogNormalLatency":
        """Build a model with total mean ``mean`` and body variability ``cv``.

        ``floor_fraction`` of the mean is deterministic floor; the lognormal
        body supplies the remaining mean with coefficient of variation ``cv``
        (relative to the body mean).
        """
        if mean <= 0:
            raise ConfigError(f"mean must be > 0, got {mean}")
        if cv <= 0:
            raise ConfigError(f"cv must be > 0, got {cv}")
        if not (0.0 <= floor_fraction < 1.0):
            raise ConfigError(f"floor_fraction must be in [0, 1), got {floor_fraction}")
        floor = mean * floor_fraction
        body_mean = mean - floor
        sigma2 = math.log(1.0 + cv * cv)
        mu = math.log(body_mean) - 0.5 * sigma2
        return cls(mu=mu, sigma=math.sqrt(sigma2), floor=floor)

    def sample(self, rng: np.random.Generator) -> float:
        return self.floor + float(rng.lognormal(self.mu, self.sigma))

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.floor + rng.lognormal(self.mu, self.sigma, size=n)

    def mean(self) -> float:
        return self.floor + math.exp(self.mu + 0.5 * self.sigma * self.sigma)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"LogNormalLatency(mu={self.mu:.4f}, sigma={self.sigma:.4f}, "
            f"floor={self.floor:.6f})"
        )


class EmpiricalLatency(LatencyModel):
    """Resample delays from a measured sample (trace replay).

    Sampling is with replacement from the provided observations, which
    preserves the full empirical shape including the tail.
    """

    def __init__(self, samples: Sequence[float]):
        arr = np.asarray(samples, dtype=float)
        if arr.size == 0:
            raise ConfigError("empirical latency needs at least one sample")
        if (arr < 0).any():
            raise ConfigError("latency samples must be non-negative")
        self.samples = arr

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.samples[rng.integers(0, self.samples.size)])

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.integers(0, self.samples.size, size=n)
        return self.samples[idx]

    def mean(self) -> float:
        return float(self.samples.mean())

    def __repr__(self) -> str:  # pragma: no cover
        return f"EmpiricalLatency(n={self.samples.size}, mean={self.mean():.6f})"
