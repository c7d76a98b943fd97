"""Online statistics used by the monitoring and reporting subsystems.

Everything here is *streaming*: O(1) (or O(window)) memory, one pass, no
storing of the full sample unless explicitly asked for (reservoir). These
are the primitives Harmony's monitoring module is built from:

- :class:`OnlineStats` -- Welford mean/variance/min/max;
- :class:`Ewma` -- exponentially weighted moving average (rate smoothing);
- :class:`Histogram` -- log-scaled latency histogram with quantile queries;
- :class:`SlidingWindow` -- time-stamped event window;
- :class:`RateEstimator` -- arrival-rate estimation over a sliding window;
- :class:`ReservoirSample` -- uniform fixed-size sample of a stream.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Iterable, List, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigError

__all__ = [
    "OnlineStats",
    "Ewma",
    "Histogram",
    "SlidingWindow",
    "RateEstimator",
    "ReservoirSample",
    "ks_distance",
    "relative_error",
    "within_tolerance",
]


class OnlineStats:
    """Welford's online mean/variance with min/max tracking.

    Numerically stable for long streams (no sum-of-squares catastrophic
    cancellation), mergeable (:meth:`merge`) so per-node statistics can be
    combined into cluster-wide ones.
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

    def add_many(self, xs: Iterable[float]) -> None:
        """Fold an iterable of observations (vectorized for ndarray input)."""
        if isinstance(xs, np.ndarray) and xs.size:
            other = OnlineStats()
            other.n = int(xs.size)
            other._mean = float(xs.mean())
            other._m2 = float(((xs - other._mean) ** 2).sum())
            other.min = float(xs.min())
            other.max = float(xs.max())
            self.merge(other)
            return
        for x in xs:
            self.add(x)

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

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        return self._mean * self.n

    def merge(self, other: "OnlineStats") -> None:
        """Fold another :class:`OnlineStats` into this one (Chan's formula)."""
        if other.n == 0:
            return
        if self.n == 0:
            self.n, self._mean, self._m2 = other.n, other._mean, other._m2
            self.min, self.max = other.min, other.max
            return
        n = self.n + other.n
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.n * other.n / n
        self._mean += delta * other.n / n
        self.n = n
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

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

    @property
    def initialized(self) -> bool:
        """Whether at least one observation has been folded in."""
        return self._initialized

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

    def add_many(self, xs: np.ndarray) -> None:
        """Record a batch of observations (vectorized)."""
        xs = np.asarray(xs, dtype=float)
        self.n += int(xs.size)
        self._sum += float(xs.sum())
        self._below += int((xs < self.lo).sum())
        self._above += int((xs >= self.hi).sum())
        inside = xs[(xs >= self.lo) & (xs < self.hi)]
        if inside.size:
            idx = np.searchsorted(self._edges, inside, side="right") - 1
            binc = np.bincount(
                np.clip(idx, 0, self.nbuckets - 1), minlength=self.nbuckets
            )
            counts = self._counts
            for i in np.nonzero(binc)[0]:
                counts[i] += int(binc[i])

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


class SlidingWindow:
    """Timestamped value window: keeps ``(t, value)`` pairs newer than ``span``.

    Used for "what happened in the last W seconds" queries. Eviction is
    amortized O(1) per insertion.
    """

    __slots__ = ("span", "_items")

    def __init__(self, span: float):
        if span <= 0:
            raise ConfigError(f"window span must be positive, got {span}")
        self.span = float(span)
        self._items: Deque[Tuple[float, float]] = deque()

    def add(self, t: float, value: float = 1.0) -> None:
        """Record ``value`` at simulated time ``t`` and evict expired items."""
        self._items.append((t, value))
        self._evict(t)

    def _evict(self, now: float) -> None:
        cutoff = now - self.span
        items = self._items
        while items and items[0][0] < cutoff:
            items.popleft()

    def count(self, now: float) -> int:
        """Number of items within the window ending at ``now``."""
        self._evict(now)
        return len(self._items)

    def sum(self, now: float) -> float:
        """Sum of item values within the window ending at ``now``."""
        self._evict(now)
        return sum(v for _, v in self._items)

    def mean(self, now: float) -> float:
        """Mean item value within the window (0.0 when empty)."""
        self._evict(now)
        if not self._items:
            return 0.0
        return sum(v for _, v in self._items) / len(self._items)

    def values(self, now: float) -> List[float]:
        """Copy of the values currently inside the window."""
        self._evict(now)
        return [v for _, v in self._items]


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


class ReservoirSample:
    """Uniform fixed-size sample of an unbounded stream (Vitter's algorithm R).

    Used where an experiment wants a representative latency/staleness sample
    without retaining millions of values.
    """

    __slots__ = ("capacity", "_rng", "_items", "n")

    def __init__(self, capacity: int, rng: np.random.Generator | int | None = None):
        if capacity <= 0:
            raise ConfigError(f"capacity must be positive, got {capacity}")
        from repro.common.rng import spawn_rng

        self.capacity = int(capacity)
        self._rng = spawn_rng(rng)
        self._items: List[float] = []
        self.n = 0

    def add(self, x: float) -> None:
        """Offer one stream element to the reservoir."""
        self.n += 1
        if len(self._items) < self.capacity:
            self._items.append(x)
        else:
            j = int(self._rng.integers(0, self.n))
            if j < self.capacity:
                self._items[j] = x

    @property
    def sample(self) -> List[float]:
        """Copy of the current reservoir contents."""
        return list(self._items)


# -- equivalence / fidelity helpers -------------------------------------------
#
# The cohort-vs-per-client fidelity suite (tests/test_cohort_fidelity.py)
# needs distribution- and scalar-level agreement measures with explicit,
# documented semantics; these are them.


def ks_distance(a: Iterable[float], b: Iterable[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_a(x) - F_b(x)|.

    The maximum vertical distance between the two empirical CDFs, in
    [0, 1]; 0 means the samples have identical empirical distributions.
    Either sample being empty is a :class:`ConfigError` -- an empty side
    would make any tolerance vacuously pass.

    Examples
    --------
    >>> ks_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    0.0
    >>> ks_distance([0.0, 0.0], [1.0, 1.0])
    1.0
    """
    xs = np.sort(np.asarray(list(a), dtype=float))
    ys = np.sort(np.asarray(list(b), dtype=float))
    if xs.size == 0 or ys.size == 0:
        raise ConfigError("ks_distance requires two non-empty samples")
    grid = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, grid, side="right") / xs.size
    cdf_y = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.abs(cdf_x - cdf_y).max())


def relative_error(measured: float, reference: float, floor: float = 0.0) -> float:
    """|measured - reference| / max(|reference|, floor).

    ``floor`` guards near-zero references (a 0.1% vs 0.2% stale rate is a
    2x relative error but a negligible absolute one; compare against
    ``max(reference, floor)`` with the floor set at the scale below which
    differences stop mattering).  A zero denominator with a zero numerator
    is 0.0; with a non-zero numerator it is ``inf``.
    """
    denom = max(abs(float(reference)), float(floor))
    diff = abs(float(measured) - float(reference))
    if denom == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / denom


def within_tolerance(
    measured: float, reference: float, rel: float, abs_floor: float = 0.0
) -> bool:
    """True when ``measured`` agrees with ``reference`` within ``rel``.

    The tolerance contract of the fidelity suite: the relative error
    (with ``abs_floor`` as the near-zero guard, see
    :func:`relative_error`) must not exceed ``rel``.

    Examples
    --------
    >>> within_tolerance(105.0, 100.0, rel=0.10)
    True
    >>> within_tolerance(0.002, 0.001, rel=0.25, abs_floor=0.01)
    True
    """
    return relative_error(measured, reference, floor=abs_floor) <= float(rel)
