"""Online statistics used by the monitoring and reporting subsystems.

Everything here is *streaming*: O(1) (or O(window)) memory, one pass, no
storing of the full sample. These are the primitives Harmony's monitoring
module is built from:

- :class:`OnlineStats` -- Welford mean/variance/min/max;
- :class:`Ewma` -- exponentially weighted moving average (rate smoothing);
- :class:`Histogram` -- log-scaled latency histogram with quantile queries;
- :class:`RateEstimator` -- arrival-rate estimation over a sliding window.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Iterable, List, Optional

import numpy as np

from repro.common.errors import ConfigError

__all__ = ["OnlineStats", "Ewma", "Histogram", "RateEstimator"]


class OnlineStats:
    """Welford's online mean/variance with min/max tracking.

    Numerically stable for long streams (no sum-of-squares catastrophic
    cancellation).
    """

    __slots__ = ("n", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        """Fold one observation into the statistics."""
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 for n < 2)."""
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def std(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(self.variance)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OnlineStats(n={self.n}, mean={self.mean:.6g}, std={self.std:.6g})"


class Ewma:
    """Exponentially weighted moving average.

    Supports both per-sample updates (fixed ``alpha``) and irregular
    time-based decay (``halflife`` in simulated seconds), which is what the
    rate monitors use: the weight of old observations halves every
    ``halflife`` seconds regardless of how many samples arrived.
    """

    __slots__ = ("alpha", "halflife", "_value", "_last_t", "_initialized")

    def __init__(self, alpha: float | None = None, halflife: float | None = None):
        if (alpha is None) == (halflife is None):
            raise ConfigError("specify exactly one of alpha / halflife")
        if alpha is not None and not (0.0 < alpha <= 1.0):
            raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
        if halflife is not None and halflife <= 0:
            raise ConfigError(f"halflife must be positive, got {halflife}")
        self.alpha = alpha
        self.halflife = halflife
        self._value = 0.0
        self._last_t: Optional[float] = None
        self._initialized = False

    @property
    def value(self) -> float:
        """Current smoothed value (0.0 before the first update)."""
        return self._value if self._initialized else 0.0

    def update(self, x: float, t: float | None = None) -> float:
        """Fold in observation ``x`` (at simulated time ``t`` for halflife mode).

        Returns the new smoothed value.
        """
        if not self._initialized:
            self._value = float(x)
            self._initialized = True
            self._last_t = t
            return self._value
        if self.alpha is not None:
            a = self.alpha
        else:
            if t is None:
                raise ConfigError("halflife-mode Ewma.update requires a timestamp")
            dt = max(0.0, t - (self._last_t if self._last_t is not None else t))
            self._last_t = t
            a = 1.0 - 0.5 ** (dt / self.halflife) if dt > 0 else 0.0
            # A zero-dt sample still carries information; blend it lightly so
            # bursts at the same instant are not discarded entirely.
            if a == 0.0:
                a = 1e-3
        self._value += a * (float(x) - self._value)
        return self._value

    @staticmethod
    def update_many(ewmas: List["Ewma"], xs: Iterable[float], t: float) -> None:
        """``ewma.update(x, t=t)`` for each pair, bit for bit; halflife EWMAs
        on the first one's clock and halflife share one decay factor."""
        head = ewmas[0]
        last, h, a = head._last_t, head.halflife, None
        if h is not None and last is not None:  # update's decay rule, once
            a = (1.0 - 0.5 ** ((t - last) / h) if t > last else 0.0) or 1e-3
        for ewma, x in zip(ewmas, xs):
            if a is not None and ewma._last_t == last and ewma.halflife == h:
                ewma._last_t = t
                ewma._value += a * (float(x) - ewma._value)
            else:
                ewma.update(x, t)


class Histogram:
    """Log-bucketed histogram for positive values (latencies, delays).

    Buckets grow geometrically between ``lo`` and ``hi``; quantile queries
    interpolate inside the winning bucket. Memory is O(#buckets) regardless
    of the number of observations, which keeps million-op simulations cheap.
    """

    __slots__ = (
        "lo",
        "hi",
        "nbuckets",
        "_edges",
        "_edges_list",
        "_counts",
        "_below",
        "_above",
        "n",
        "_sum",
        "_log_lo",
        "_inv_log_step",
    )

    def __init__(self, lo: float = 1e-5, hi: float = 100.0, nbuckets: int = 256):
        if lo <= 0 or hi <= lo:
            raise ConfigError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
        if nbuckets < 2:
            raise ConfigError("need at least 2 buckets")
        self.lo, self.hi, self.nbuckets = float(lo), float(hi), int(nbuckets)
        self._edges = np.geomspace(lo, hi, nbuckets + 1)
        # Plain-python mirrors for the per-observation path: a scalar
        # ``np.searchsorted`` call per latency sample costs more than the
        # whole bucket update should. Buckets are geometric, so the index is
        # closed-form in log space; the list lookup then nudges it to agree
        # exactly with searchsorted's edge semantics despite float rounding.
        self._edges_list: List[float] = self._edges.tolist()
        self._counts: List[int] = [0] * nbuckets
        self._below = 0
        self._above = 0
        self.n = 0
        self._sum = 0.0
        self._log_lo = math.log(self.lo)
        self._inv_log_step = nbuckets / (math.log(self.hi) - self._log_lo)

    def add(self, x: float) -> None:
        """Record one observation."""
        self.n += 1
        self._sum += x
        if x < self.lo:
            self._below += 1
        elif x >= self.hi:
            self._above += 1
        elif x != x:
            # NaN fails both range guards; searchsorted sorted it past the
            # last edge into the top bucket, so keep doing exactly that
            # rather than let math.log raise mid-run.
            self._counts[self.nbuckets - 1] += 1
        else:
            nb = self.nbuckets
            idx = int((math.log(x) - self._log_lo) * self._inv_log_step)
            if idx < 0:
                idx = 0
            elif idx >= nb:
                idx = nb - 1
            edges = self._edges_list
            # Exact alignment with searchsorted(side="right") - 1: the
            # closed form can be off by one at bucket boundaries.
            while idx > 0 and edges[idx] > x:
                idx -= 1
            while idx < nb - 1 and edges[idx + 1] <= x:
                idx += 1
            self._counts[idx] += 1

    @property
    def mean(self) -> float:
        """Exact mean of all recorded observations."""
        return self._sum / self.n if self.n else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (q in [0, 1]); 0.0 when empty."""
        if not (0.0 <= q <= 1.0):
            raise ConfigError(f"quantile must be in [0, 1], got {q}")
        if self.n == 0:
            return 0.0
        target = q * self.n
        if target <= self._below:
            return self.lo
        acc = float(self._below)
        for i in range(self.nbuckets):
            c = float(self._counts[i])
            if acc + c >= target and c > 0:
                frac = (target - acc) / c
                return float(self._edges[i] + frac * (self._edges[i + 1] - self._edges[i]))
            acc += c
        return self.hi

    def percentile(self, p: float) -> float:
        """Convenience: ``percentile(99)`` == ``quantile(0.99)``."""
        return self.quantile(p / 100.0)


class RateEstimator:
    """Arrival-rate estimator: events/second over a sliding window.

    This is the estimator Harmony's monitoring module uses for the read and
    write arrival rates fed to the stale-read probability model. Before a
    full window has elapsed the rate is computed over the elapsed time span
    (avoids the cold-start underestimation of dividing by the full span).
    """

    __slots__ = ("window", "_events", "_t0")

    def __init__(self, window: float = 10.0):
        if window <= 0:
            raise ConfigError(f"rate window must be positive, got {window}")
        self.window = float(window)
        self._events: Deque[float] = deque()
        self._t0: Optional[float] = None

    def record(self, t: float, count: int = 1) -> None:
        """Record ``count`` arrivals at simulated time ``t``."""
        if self._t0 is None:
            self._t0 = t
        for _ in range(count):
            self._events.append(t)
        cutoff = t - self.window
        ev = self._events
        while ev and ev[0] < cutoff:
            ev.popleft()

    def rate(self, now: float) -> float:
        """Estimated arrival rate (events/sec) at simulated time ``now``."""
        if self._t0 is None:
            return 0.0
        cutoff = now - self.window
        ev = self._events
        while ev and ev[0] < cutoff:
            ev.popleft()
        span = min(self.window, max(now - self._t0, 1e-9))
        return len(ev) / span
