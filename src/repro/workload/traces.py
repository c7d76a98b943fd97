"""Operation traces: recording, replay, and synthetic multi-phase generators.

The behavior-modeling contribution (§III-C) is an *offline* pipeline over
"application data access past traces". This module supplies all three ways
to obtain such traces:

- :class:`TraceRecorder` -- a store listener that captures live operations
  from any simulated run;
- :func:`replay_trace` -- drive a store with a previously captured trace;
- :class:`PhasedTraceGenerator` -- synthesize traces with *planted phases*
  (e.g. a webshop's browse / checkout-rush / nightly-batch regimes), the
  ground truth against which the clustering step is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import spawn_rng
from repro.cluster.coordinator import OpResult
from repro.workload.workloads import KEY_PREFIX

__all__ = [
    "TraceRecord",
    "TraceRecorder",
    "TracePhase",
    "PhasedTraceGenerator",
    "replay_trace",
]


@dataclass(frozen=True)
class TraceRecord:
    """One operation in a trace.

    ``phase`` carries the *planted* regime label for synthetic traces
    (``None`` for recorded ones); the behavior pipeline never reads it --
    only the evaluation does, to score cluster recovery.
    """

    t: float
    kind: str  # "read" | "write"
    key: str
    latency: float = 0.0
    stale: Optional[bool] = None
    phase: Optional[str] = None


class TraceRecorder:
    """Store listener appending every completed operation to a trace."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def on_op_complete(self, result: OpResult) -> None:
        self.records.append(
            TraceRecord(
                t=result.t_start,
                kind="read" if result.kind == "read" else "write",
                key=result.key,
                latency=result.latency,
                stale=result.stale,
            )
        )

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class TracePhase:
    """One regime of a synthetic application timeline.

    Attributes
    ----------
    name:
        Ground-truth label (e.g. ``"checkout-rush"``).
    duration:
        Seconds this phase lasts.
    rate:
        Operation arrival rate (ops/sec, Poisson).
    read_fraction:
        Probability an operation is a read.
    key_count / hot_fraction / hot_weight:
        Key population and skew: ``hot_weight`` of accesses hit the first
        ``hot_fraction`` of keys.
    """

    name: str
    duration: float
    rate: float
    read_fraction: float
    key_count: int = 1000
    hot_fraction: float = 0.2
    hot_weight: float = 0.8

    def __post_init__(self) -> None:
        if self.duration <= 0 or self.rate <= 0:
            raise ConfigError("phase duration and rate must be positive")
        if not (0.0 <= self.read_fraction <= 1.0):
            raise ConfigError(f"read_fraction in [0,1], got {self.read_fraction}")


class PhasedTraceGenerator:
    """Synthesize a trace that cycles through explicit phases.

    Examples
    --------
    A webshop timeline (browse-heavy day, checkout rush, nightly batch)::

        gen = PhasedTraceGenerator([
            TracePhase("browse",   300, rate=200, read_fraction=0.95),
            TracePhase("checkout",  60, rate=400, read_fraction=0.55),
            TracePhase("batch",    120, rate=100, read_fraction=0.10),
        ])
        trace = gen.generate(cycles=4, seed=3)
    """

    def __init__(self, phases: Sequence[TracePhase]):
        if not phases:
            raise ConfigError("need at least one phase")
        self.phases = list(phases)

    def generate(self, cycles: int = 1, seed: int | None = 0) -> List[TraceRecord]:
        """Produce ``cycles`` repetitions of the phase sequence."""
        if cycles < 1:
            raise ConfigError(f"cycles must be >= 1, got {cycles}")
        rng = spawn_rng(seed)
        out: List[TraceRecord] = []
        t = 0.0
        for _ in range(cycles):
            for phase in self.phases:
                t = self._generate_phase(phase, t, rng, out)
        return out

    def _generate_phase(
        self,
        phase: TracePhase,
        t0: float,
        rng: np.random.Generator,
        out: List[TraceRecord],
    ) -> float:
        end = t0 + phase.duration
        n_expected = int(phase.rate * phase.duration)
        # Vectorized Poisson arrivals: exponential gaps, trimmed to the phase.
        gaps = rng.exponential(1.0 / phase.rate, size=max(8, int(n_expected * 1.2)))
        times = t0 + np.cumsum(gaps)
        times = times[times < end]
        hot_keys = max(1, int(phase.key_count * phase.hot_fraction))
        for t in times:
            is_read = rng.random() < phase.read_fraction
            if rng.random() < phase.hot_weight:
                idx = int(rng.integers(0, hot_keys))
            else:
                idx = int(rng.integers(0, phase.key_count))
            out.append(
                TraceRecord(
                    t=float(t),
                    kind="read" if is_read else "write",
                    key=f"{KEY_PREFIX}{idx}",
                    phase=phase.name,
                )
            )
        return end


def replay_trace(
    store,
    trace: Iterable[TraceRecord],
    policy,
    time_scale: float = 1.0,
) -> int:
    """Schedule a trace's operations against a store.

    Returns the number of operations scheduled; run the store's simulator to
    execute them. ``time_scale`` compresses (<1) or dilates (>1) the trace
    clock, which is how the behavior experiments sweep load intensity
    without regenerating traces.
    """
    if time_scale <= 0:
        raise ConfigError(f"time_scale must be positive, got {time_scale}")
    n = 0
    tr = store.transport
    base = tr.now
    for rec in trace:
        replay = _replay_read if rec.kind == "read" else _replay_write
        tr.post_at(base + rec.t * time_scale, replay, store, rec.key, policy)
        n += 1
    return n


def _replay_read(store, key: str, policy) -> None:
    store.read(key, policy.read_level(store.transport.now))


def _replay_write(store, key: str, policy) -> None:
    store.write(key, policy.write_level(store.transport.now))

