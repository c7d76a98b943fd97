"""One-way network delay models.

Latency models map a random stream to per-message one-way delays. The WAN
model of record is :class:`LogNormalLatency`: wide-area RTT distributions are
well described by a lognormal body with a heavy right tail, and that tail is
precisely what creates long update-propagation windows -- the paper's stale
reads. The deterministic model serves tests and default link delays.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import ConfigError

__all__ = ["LatencyModel", "FixedLatency", "LogNormalLatency"]

#: Share of a :meth:`LogNormalLatency.from_mean_cv` mean that is the
#: deterministic floor (propagation); the lognormal body supplies the rest.
FLOOR_FRACTION = 0.5


class LatencyModel:
    """Abstract one-way delay model.

    Subclasses implement :meth:`sample` (one delay) and :meth:`mean`.
    """

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one one-way delay in seconds."""
        raise NotImplementedError

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

    def mean(self) -> float:
        return self.delay

    def __repr__(self) -> str:  # pragma: no cover
        return f"FixedLatency({self.delay})"


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
    def from_mean_cv(cls, mean: float, cv: float = 0.5) -> "LogNormalLatency":
        """Build a model with total mean ``mean`` and body variability ``cv``.

        ``FLOOR_FRACTION`` of the mean is deterministic floor; the lognormal
        body supplies the remaining mean with coefficient of variation ``cv``
        (relative to the body mean).
        """
        if mean <= 0:
            raise ConfigError(f"mean must be > 0, got {mean}")
        if cv <= 0:
            raise ConfigError(f"cv must be > 0, got {cv}")
        floor = mean * FLOOR_FRACTION
        body_mean = mean - floor
        sigma2 = math.log(1.0 + cv * cv)
        mu = math.log(body_mean) - 0.5 * sigma2
        return cls(mu=mu, sigma=math.sqrt(sigma2), floor=floor)

    def sample(self, rng: np.random.Generator) -> float:
        return self.floor + float(rng.lognormal(self.mu, self.sigma))

    def mean(self) -> float:
        return self.floor + math.exp(self.mu + 0.5 * self.sigma * self.sigma)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"LogNormalLatency(mu={self.mu:.4f}, sigma={self.sigma:.4f}, "
            f"floor={self.floor:.6f})"
        )

