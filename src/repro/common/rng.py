"""Deterministic hierarchical random-number streams.

Every stochastic component in the library (latency models, key choosers,
failure injectors, Monte-Carlo estimators...) draws from its *own*
:class:`numpy.random.Generator`. All generators descend from one root
:class:`numpy.random.SeedSequence`, so

- a whole experiment is reproduced exactly by one integer seed, and
- adding a new consumer of randomness does not perturb the streams of
  existing consumers (no shared global state, no draw-order coupling).

The naming scheme is hierarchical: ``RngFactory(seed).stream("net.wan")`` and
``.stream("workload.keys")`` return independent generators, stable across
runs and across unrelated code changes.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional

import numpy as np

__all__ = ["RngFactory", "spawn_rng", "BlockUniforms", "block_uniforms"]

_LOW32, _TWO32 = 0xFFFFFFFF, 1 << 32


def _name_key(name: str) -> int:
    """Stable 32-bit key for a stream name (crc32 is stable across runs)."""
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


class RngFactory:
    """Factory of named, independent random generators under one root seed.

    Parameters
    ----------
    seed:
        Root seed of the experiment. Two factories built from the same seed
        hand out identical streams for identical names.

    Examples
    --------
    >>> rngs = RngFactory(42)
    >>> a = rngs.stream("net.wan")
    >>> b = rngs.stream("workload.keys")
    >>> a is rngs.stream("net.wan")   # streams are cached per name
    True
    """

    def __init__(self, seed: int = 0):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self.seed = int(seed)
        self._root = np.random.SeedSequence(self.seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for ``name``.

        The generator is derived from ``(root seed, crc32(name))`` so it does
        not depend on the order in which streams are requested.
        """
        got = self._streams.get(name)
        if got is None:
            seq = np.random.SeedSequence((self.seed, _name_key(name)))
            got = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = got
        return got

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RngFactory(seed={self.seed}, streams={sorted(self._streams)})"


def spawn_rng(seed_or_rng: "int | np.random.Generator | None") -> np.random.Generator:
    """Coerce an ``int | Generator | None`` argument into a ``Generator``.

    The standard idiom for public constructors that accept a ``seed``
    argument: pass-through generators, seed new ones from ints, and use
    a fixed default seed (0) for ``None`` so the library is deterministic
    by default (explicitly *unlike* numpy's entropy-seeded default).
    """
    if seed_or_rng is None:
        return np.random.default_rng(0)
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    if isinstance(seed_or_rng, (int, np.integer)):
        return np.random.default_rng(int(seed_or_rng))
    raise TypeError(
        f"expected int, numpy Generator or None, got {type(seed_or_rng).__name__}"
    )


class BlockUniforms:
    """A PCG64 generator's ``random()`` and ``integers(lo, hi)`` at list-pop cost.

    Served from ``random_raw(64)`` blocks, bit for bit and in stream order
    what numpy 2.4's scalar calls (0.7--2.7 us) return: ``next_double``, and
    Lemire's draw on ``next_uint32`` with its buffered upper half
    (``has_uint32``/``uinteger``). Any other draw goes through
    :meth:`handback` (ARCHITECTURE.md, "block-served streams").
    """

    __slots__ = ("generator", "_raws", "_half")

    def __init__(self, generator: np.random.Generator):
        if type(generator.bit_generator) is not np.random.PCG64:
            raise TypeError(f"BlockUniforms needs PCG64, got {generator.bit_generator}")
        self.generator = generator
        #: the block's unused outputs, reversed: ``pop()`` serves draw order
        self._raws: List[int] = []
        #: buffered upper half while owned (-1: none); ``None``: handed back
        self._half: Optional[int] = None

    def _refill(self) -> List[int]:
        """Fetch the next block, taking the stream over after a hand-back."""
        bg = self.generator.bit_generator
        if self._half is None:
            state = bg.state
            self._half = state["uinteger"] if state["has_uint32"] else -1
        self._raws.extend(bg.random_raw(64)[::-1].tolist())
        return self._raws

    def _next32(self) -> int:
        if self._half is None:  # handed back, so the block is empty too
            self._refill()
        half = self._half
        if half >= 0:
            self._half = -1
            return half
        raw = (self._raws or self._refill()).pop()
        self._half = raw >> 32
        return raw & _LOW32

    def random(self) -> float:
        """``generator.random()``."""
        return ((self._raws or self._refill()).pop() >> 11) * (1.0 / (1 << 53))

    def integers(self, lo: int, hi: int) -> int:
        """``int(generator.integers(lo, hi))`` for Python ints."""
        n = hi - lo
        if n == 1:
            return lo  # numpy draws nothing
        if not 1 < n <= _TWO32:
            return int(self.handback().integers(lo, hi))
        m = self._next32() * n
        if m & _LOW32 < n:
            threshold = _TWO32 % n  # numpy's (UINT32_MAX - rng) % rng_excl
            while m & _LOW32 < threshold:
                m = self._next32() * n
        return lo + (m >> 32)

    def handback(self) -> np.random.Generator:
        """The generator, stepped back over the unused outputs (exact)."""
        half = self._half
        if half is not None:
            bg = self.generator.bit_generator
            if self._raws:
                bg.advance((1 << 128) - len(self._raws))  # modulo 2**128
                self._raws.clear()
            state = bg.state
            state["has_uint32"], state["uinteger"] = (1, half) if half >= 0 else (0, 0)
            bg.state = state
            self._half = None
        return self.generator


def block_uniforms(seed_or_rng: Any) -> BlockUniforms:
    """Coerce like :func:`spawn_rng`; a :class:`BlockUniforms` passes through."""
    if isinstance(seed_or_rng, BlockUniforms):
        return seed_or_rng
    return BlockUniforms(spawn_rng(seed_or_rng))
