"""Cohort-mode workload generation: millions of clients as pooled processes.

Per-client mode (:class:`~repro.workload.client.ClosedLoopClient`) gives
every simulated client its own object, RNG stream and key chooser, which
caps sweeps at ~10^4 clients.  A :class:`CohortPopulation` models the *N*
clients colocated with one datacenter and sharing one workload mix as a
single pooled generator:

- **Arrivals** are the superposition of the members' individual processes.
  For paced members that superposition is (asymptotically) Poisson at the
  aggregate rate, so the cohort draws unit-exponential inter-arrival gaps
  in vectorized batches -- the same bit-identical batching guarantee PR 4
  established for :class:`~repro.workload.client.OpenLoopSource`, proven by
  ``tests/test_cohort.py`` -- and scales them by the *current* rate at
  scheduling time, so mid-run re-pacing (diurnal shapes) applies on the
  very next arrival without touching the RNG stream.
- **Concurrency** is capped at the member count: an arrival that finds all
  members busy queues in a backlog and is issued by the next completion,
  which preserves the closed-loop property that one client never has two
  operations outstanding.  Unpaced cohorts degenerate to exactly the
  pooled closed loop: ``min(members, ops)`` operations in flight, each
  completion issuing the next.
- **Accounting** is aggregated per cohort (ops, latency, staleness via
  :class:`~repro.common.stats.OnlineStats`) while every operation is sent
  by :func:`~repro.workload.client.issue_op`, the emitter per-client mode
  uses, through ``store.read`` / ``store.write`` -- the monitor collectors,
  staleness oracle, billing and adaptive policies observe cohort traffic
  through the exact listener hooks per-client traffic uses.

The memory and setup cost of a cohort is O(1) in the member count, which
is what moves the client-count ceiling from ~10^4 to 10^6+ (the two
``*-cohort`` scenarios run 10^6 clients).  ``tests/test_cohort_fidelity.py``
is the equivalence evidence: per-client and cohort mode agree on
staleness / latency / cost within documented tolerances on real scenarios.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Optional

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import block_uniforms
from repro.common.stats import OnlineStats
from repro.cluster.coordinator import OpResult
from repro.cluster.store import ReplicatedStore, draw_coordinator
from repro.policy import ConsistencyPolicy
from repro.workload.client import issue_op
from repro.workload.workloads import WorkloadSpec

__all__ = ["CohortPopulation"]

#: Unit-exponential gaps drawn per RNG round-trip.  Large enough that the
#: generator call overhead amortizes to nothing, small enough that a paced
#: run's working set stays cache-resident.
_GAP_BATCH = 4096


class CohortPopulation:
    """``members`` clients of one (DC, workload-mix) as one pooled generator.

    Parameters
    ----------
    store, spec, policy:
        The deployment, the workload mix, and the consistency policy --
        exactly as for the per-client classes.
    members:
        How many clients this cohort stands in for.  Bounds the number of
        operations in flight (one outstanding op per member).
    ops:
        Total operations the cohort will issue.
    rng:
        Generator for operation sampling (op type, key, coordinator).
    arrival_rng:
        Generator for inter-arrival gaps.  Kept separate from ``rng`` so
        batched gap refills never perturb the op-sampling stream; defaults
        to ``rng`` being split is **not** done implicitly -- pass one
        (the runner derives ``cohort.<dc>.arrivals``) or arrivals fall back
        to ``rng``, handed back per refill, gap draws interleaving op draws.
    target_rate:
        Aggregate offered rate of the whole cohort (ops/sec), or ``None``
        for the unpaced pooled closed loop.
    dc:
        Datacenter whose nodes coordinate this cohort's operations.
    on_finished:
        Callback fired once when the last operation completes.
    batch:
        Unit-exponential gaps per vectorized refill (tested bit-identical
        to scalar draws for any value >= 1).
    """

    #: Pacing weight relative to a single closed-loop client (the elastic
    #: re-pacer splits a total offered rate proportionally to this).
    @property
    def weight(self) -> int:
        return self.members

    def __init__(
        self,
        store: ReplicatedStore,
        spec: WorkloadSpec,
        policy: ConsistencyPolicy,
        members: int,
        ops: int,
        rng: np.random.Generator,
        arrival_rng: Optional[np.random.Generator] = None,
        target_rate: Optional[float] = None,
        dc: Optional[int] = None,
        on_finished=None,
        batch: int = _GAP_BATCH,
    ):
        if members < 1:
            raise ConfigError(f"members must be >= 1, got {members}")
        if ops < 0:
            raise ConfigError(f"ops must be >= 0, got {ops}")
        if target_rate is not None and target_rate <= 0:
            raise ConfigError(f"target_rate must be positive, got {target_rate}")
        if batch < 1:
            raise ConfigError(f"batch must be >= 1, got {batch}")
        self.store = store
        self.spec = spec
        self.policy = policy
        self.members = int(members)
        self.remaining = int(ops)
        self.ops_total = int(ops)
        self.uniforms = block_uniforms(rng)
        self.arrival_rng = arrival_rng
        self.rate = float(target_rate) if target_rate else None
        self.dc = dc
        self._coordinator = partial(draw_coordinator, store, dc, self.uniforms)
        self.on_finished = on_finished
        self.chooser = spec.make_chooser(rng=self.uniforms)
        self.inserted = 0
        self.issued = 0
        self.in_flight = 0
        #: arrivals that found every member busy, waiting for a completion.
        self.backlog = 0
        self._batch = int(batch)
        self._gaps: Optional[np.ndarray] = None
        self._gap_pos = 0
        self._arrivals_left = 0
        # -- aggregate per-cohort accounting (fed to RunReport.cohorts) ----
        self.read_latency = OnlineStats()
        self.write_latency = OnlineStats()
        self.stale_reads = 0
        self.failed_ops = 0
        self.completed = 0

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Begin generating operations (call before the simulator runs)."""
        if self.remaining == 0:
            self._finish()
            return
        if self.rate is None:
            # Pooled closed loop: fill the member window, completions refill.
            for _ in range(min(self.members, self.remaining)):
                self.remaining -= 1
                self._issue()
            return
        self._arrivals_left = self.remaining
        self._schedule_next_arrival()

    def set_rate(self, target_rate: Optional[float]) -> None:
        """Re-pace the whole cohort mid-run (aggregate ops/sec).

        Paced cohorts apply the new rate on the very next arrival (gaps are
        stored rate-free as unit exponentials).  Switching a paced cohort to
        unpaced (``None``) lets the chained arrival scheduler drain what is
        already scheduled and issues the rest completion-driven.
        """
        if target_rate is not None and target_rate <= 0:
            raise ConfigError(f"target_rate must be positive, got {target_rate}")
        self.rate = float(target_rate) if target_rate else None

    # -- arrival machinery -------------------------------------------------------

    def _next_gap(self) -> float:
        """One unit-exponential gap from the vectorized buffer.

        The buffer refill is a single ``standard_exponential(size=batch)``
        call; numpy produces bit-identical doubles for the batched and the
        scalar form, so the arrival stream does not depend on ``batch``
        (property-tested).
        """
        if self._gaps is None or self._gap_pos >= len(self._gaps):
            rng = self.arrival_rng or self.uniforms.handback()
            self._gaps = rng.standard_exponential(
                size=min(self._batch, max(1, self._arrivals_left))
            )
            self._gap_pos = 0
        gap = float(self._gaps[self._gap_pos])
        self._gap_pos += 1
        return gap

    def _schedule_next_arrival(self) -> None:
        if self._arrivals_left <= 0:
            return
        self._arrivals_left -= 1
        if self.rate is None:
            # Re-paced to unpaced mid-run: issue the rest completion-driven.
            self._arrivals_left = 0
            while self.remaining > 0 and self.in_flight < self.members:
                self.remaining -= 1
                self._issue()
            return
        tr = self.store.transport
        tr.post_at(tr.now + self._next_gap() / self.rate, self._arrival)

    def _arrival(self) -> None:
        if self.remaining > 0:
            self.remaining -= 1
            if self.in_flight < self.members:
                self._issue()
            else:
                self.backlog += 1
        self._schedule_next_arrival()

    # -- operation emission ------------------------------------------------------

    def _issue(self) -> None:
        self.in_flight += 1
        self.issued += 1
        issue_op(self, self._op_done)

    def _op_done(self, result: OpResult) -> None:
        self.in_flight -= 1
        self.completed += 1
        if result.ok:
            if result.kind == "read":
                self.read_latency.add(result.latency)
                if result.stale:
                    self.stale_reads += 1
            else:
                self.write_latency.add(result.latency)
        else:
            self.failed_ops += 1
        if self.backlog > 0:
            self.backlog -= 1
            self._issue()
        elif self.rate is None and self.remaining > 0:
            self.remaining -= 1
            self._issue()
        elif self.remaining <= 0 and self.in_flight == 0 and self._arrivals_left <= 0:
            self._finish()

    def _finish(self) -> None:
        if self.on_finished is not None:
            cb, self.on_finished = self.on_finished, None
            cb(self)

    # -- reporting ---------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Aggregate per-cohort accounting (JSON-safe, deterministic keys)."""
        reads = self.read_latency.n
        return {
            "dc": self.dc if self.dc is not None else -1,
            "members": int(self.members),
            "ops": int(self.completed),
            "reads": int(reads),
            "writes": int(self.write_latency.n),
            "failed": int(self.failed_ops),
            "stale_reads": int(self.stale_reads),
            "stale_rate": float(self.stale_reads / reads) if reads else 0.0,
            "read_latency_mean_ms": float(self.read_latency.mean * 1e3),
            "write_latency_mean_ms": float(self.write_latency.mean * 1e3),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CohortPopulation(members={self.members}, dc={self.dc}, "
            f"issued={self.issued}, remaining={self.remaining})"
        )
