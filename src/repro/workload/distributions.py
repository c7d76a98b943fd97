"""YCSB key-choice distributions.

Faithful ports of the generators in YCSB's ``com.yahoo.ycsb.generator``:

- :class:`ZipfianChooser` implements Gray et al.'s rejection-free zipfian
  sampler with the benchmark's canonical constant 0.99, including the
  ``eta``/``zeta`` bookkeeping that allows growing item counts;
- :class:`ScrambledZipfianChooser` spreads the zipfian head over the key
  space with an FNV hash (so "popular" keys are not ring neighbours);
- :class:`LatestChooser` skews towards recently inserted items (workload D);
- :class:`HotSpotChooser` draws ``hot_opn_fraction`` of operations from a
  ``hot_set_fraction`` of the items.

All choosers return integer item indices in ``[0, item_count)``; key strings
are formed by the workload layer (``user<index>`` like YCSB).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import block_uniforms

__all__ = [
    "KeyChooser",
    "UniformChooser",
    "ZipfianChooser",
    "ScrambledZipfianChooser",
    "LatestChooser",
    "HotSpotChooser",
    "make_chooser",
]

#: YCSB's canonical zipfian skew constant.
ZIPFIAN_CONSTANT = 0.99

#: FNV-1a 64-bit parameters (YCSB's scramble hash).
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


@lru_cache(maxsize=1 << 11)  # one shared memo: zipfian ranks repeat
def _fnv1a64(value: int) -> int:
    """FNV-1a over the 8 little-endian bytes of ``value`` (YCSB's ``fnvhash64``),
    one straight-line xor-multiply step per byte, low byte first."""
    h = ((_FNV_OFFSET ^ (value & 0xFF)) * _FNV_PRIME) & _MASK64
    h = ((h ^ ((value >> 8) & 0xFF)) * _FNV_PRIME) & _MASK64
    h = ((h ^ ((value >> 16) & 0xFF)) * _FNV_PRIME) & _MASK64
    h = ((h ^ ((value >> 24) & 0xFF)) * _FNV_PRIME) & _MASK64
    h = ((h ^ ((value >> 32) & 0xFF)) * _FNV_PRIME) & _MASK64
    h = ((h ^ ((value >> 40) & 0xFF)) * _FNV_PRIME) & _MASK64
    h = ((h ^ ((value >> 48) & 0xFF)) * _FNV_PRIME) & _MASK64
    return ((h ^ ((value >> 56) & 0xFF)) * _FNV_PRIME) & _MASK64


@lru_cache(maxsize=64)  # every client of a population builds a chooser
def _zeta(n: int, theta: float) -> float:
    """``sum(1 / i**theta for i in 1..n)``, O(n) in one array, in place."""
    terms = np.arange(1, n + 1, dtype=float)
    np.power(terms, theta, out=terms)
    np.divide(1.0, terms, out=terms)
    return float(np.sum(terms))


class KeyChooser:
    """Abstract integer item chooser over ``[0, item_count)``."""

    item_count: int

    def next_index(self) -> int:
        """Draw one item index."""
        raise NotImplementedError

    def notify_insert(self, new_count: int) -> None:
        """Inform the chooser the item population grew (inserts)."""
        self.item_count = int(new_count)


class UniformChooser(KeyChooser):
    """Uniform over the item population."""

    def __init__(self, item_count: int, rng: "np.random.Generator | int | None" = None):
        if item_count < 1:
            raise ConfigError(f"item_count must be >= 1, got {item_count}")
        self.item_count = int(item_count)
        self.uniforms = block_uniforms(rng)

    def next_index(self) -> int:
        return self.uniforms.integers(0, self.item_count)


class ZipfianChooser(KeyChooser):
    """Gray et al. zipfian sampler (YCSB ``ZipfianGenerator``).

    Item 0 is the most popular. ``theta`` defaults to YCSB's 0.99. The
    ``zeta`` constant is computed incrementally when the population grows,
    mirroring YCSB's support for insert-heavy workloads.
    """

    def __init__(
        self,
        item_count: int,
        theta: float = ZIPFIAN_CONSTANT,
        rng: "np.random.Generator | int | None" = None,
    ):
        if item_count < 1:
            raise ConfigError(f"item_count must be >= 1, got {item_count}")
        if not (0.0 < theta < 1.0):
            raise ConfigError(f"theta must be in (0, 1), got {theta}")
        self.item_count = int(item_count)
        self.theta = float(theta)
        self.uniforms = block_uniforms(rng)
        self._alpha = 1.0 / (1.0 - theta)
        self._zeta2 = _zeta(2, self.theta)
        self._zetan = _zeta(self.item_count, self.theta)
        self._zetan_for = self.item_count
        self._recompute_eta()

    def _recompute_eta(self) -> None:
        n = self.item_count
        # For n <= 2 every draw is resolved by the head shortcuts in
        # next_index (uz < 1 or uz < 1 + 0.5**theta covers the whole unit
        # interval), so eta is never consulted -- and its denominator would
        # be zero at n == 2.
        self._eta = (
            (1.0 - (2.0 / n) ** (1.0 - self.theta))
            / (1.0 - self._zeta2 / self._zetan)
            if n >= 3
            else 0.0
        )

    def notify_insert(self, new_count: int) -> None:
        new_count = int(new_count)
        if new_count > self._zetan_for:
            extra = np.arange(self._zetan_for + 1, new_count + 1, dtype=float)
            self._zetan += float(np.sum(1.0 / np.power(extra, self.theta)))
            self._zetan_for = new_count
        self.item_count = new_count
        self._recompute_eta()

    def next_index(self) -> int:
        n = self.item_count
        if n == 1:
            return 0
        u = self.uniforms.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self.theta:
            return 1
        return int(n * (self._eta * u - self._eta + 1.0) ** self._alpha)


class ScrambledZipfianChooser(KeyChooser):
    """Zipfian popularity spread uniformly over the key space (YCSB default).

    The underlying zipfian draws from a large fixed universe and the result
    is FNV-hashed modulo the live population, so which concrete keys are hot
    is arbitrary but stable -- exactly YCSB's ``ScrambledZipfianGenerator``.
    """

    #: YCSB uses a fixed large universe so hot-key identity is stable under growth.
    ITEM_UNIVERSE = 10_000_000_000

    def __init__(
        self,
        item_count: int,
        theta: float = ZIPFIAN_CONSTANT,
        rng: "np.random.Generator | int | None" = None,
    ):
        if item_count < 1:
            raise ConfigError(f"item_count must be >= 1, got {item_count}")
        self.item_count = int(item_count)
        # YCSB uses zeta(universe) approximation; we keep the sampler over the
        # live population and scramble, which preserves the popularity *shape*
        # while being exact for any population size.
        self._zipf = ZipfianChooser(self.item_count, theta=theta, rng=rng)

    def notify_insert(self, new_count: int) -> None:
        self.item_count = int(new_count)
        self._zipf.notify_insert(new_count)

    def next_index(self) -> int:
        raw = self._zipf.next_index()
        return _fnv1a64(raw) % self.item_count


class LatestChooser(KeyChooser):
    """Skewed towards recently inserted items (YCSB ``SkewedLatestGenerator``)."""

    def __init__(self, item_count: int, rng: "np.random.Generator | int | None" = None):
        self.item_count = int(item_count)
        self._zipf = ZipfianChooser(self.item_count, rng=rng)

    def notify_insert(self, new_count: int) -> None:
        self.item_count = int(new_count)
        self._zipf.notify_insert(new_count)

    def next_index(self) -> int:
        # newest item = index item_count-1; zipfian rank 0 maps to it.
        return self.item_count - 1 - self._zipf.next_index()


class HotSpotChooser(KeyChooser):
    """``hot_opn_fraction`` of draws hit the first ``hot_set_fraction`` items."""

    def __init__(
        self,
        item_count: int,
        hot_set_fraction: float = 0.2,
        hot_opn_fraction: float = 0.8,
        rng: "np.random.Generator | int | None" = None,
    ):
        if item_count < 1:
            raise ConfigError(f"item_count must be >= 1, got {item_count}")
        if not (0.0 < hot_set_fraction <= 1.0):
            raise ConfigError(f"hot_set_fraction in (0,1], got {hot_set_fraction}")
        if not (0.0 <= hot_opn_fraction <= 1.0):
            raise ConfigError(f"hot_opn_fraction in [0,1], got {hot_opn_fraction}")
        self.item_count = int(item_count)
        self.hot_set_fraction = float(hot_set_fraction)
        self.hot_opn_fraction = float(hot_opn_fraction)
        self.uniforms = block_uniforms(rng)

    def next_index(self) -> int:
        hot_items = max(1, int(self.item_count * self.hot_set_fraction))
        if self.uniforms.random() < self.hot_opn_fraction:
            return self.uniforms.integers(0, hot_items)
        if hot_items >= self.item_count:
            return self.uniforms.integers(0, self.item_count)
        return self.uniforms.integers(hot_items, self.item_count)


def make_chooser(
    name: str,
    item_count: int,
    rng: "np.random.Generator | int | None" = None,
    **kwargs,
) -> KeyChooser:
    """Factory by YCSB's ``requestdistribution`` property name."""
    name = name.lower()
    table = {
        "uniform": UniformChooser,
        "zipfian": ScrambledZipfianChooser,  # YCSB's default zipfian is scrambled
        "rawzipfian": ZipfianChooser,
        "latest": LatestChooser,
        "hotspot": HotSpotChooser,
    }
    if name not in table:
        raise ConfigError(f"unknown distribution {name!r}; choose from {sorted(table)}")
    return table[name](item_count, rng=rng, **kwargs)
