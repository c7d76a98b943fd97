"""Closed-loop transactional clients and their run driver.

Mirrors :class:`~repro.workload.client.WorkloadRunner` for multi-key
transactions: N closed-loop clients each keep one transaction in flight
(begin, fan out the mix's reads at the active policy's level, buffer the
writes, commit via 2PC, repeat). :func:`repro.run` builds a
:class:`TxnRunner` when the ``RunSpec`` carries a ``txn_workload``.

The resulting :class:`~repro.workload.client.RunReport` carries the usual
read-side metrics (the transactional reads go through the normal read
path) plus a ``txn`` dict: commit/abort/in-doubt counts, lost-update
anomalies, and commit-latency percentiles.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import RngFactory, block_uniforms
from repro.cluster.coordinator import OpResult
from repro.cluster.store import draw_coordinator
from repro.cost.billing import Biller
from repro.txn.api import TransactionalStore, TxnOutcome
from repro.workload.client import LevelUsage, RunReport
from repro.workload.workloads import KeyRange, TxnWorkloadSpec

__all__ = ["TxnClient", "TxnRunner"]


class TxnClient:
    """One-outstanding-transaction client bound to a coordinator datacenter."""

    def __init__(
        self,
        tstore: TransactionalStore,
        spec: TxnWorkloadSpec,
        txns: int,
        rng: np.random.Generator,
        target_rate: Optional[float] = None,
        dc: Optional[int] = None,
        on_finished: Optional[Callable[["TxnClient"], Any]] = None,
    ):
        if txns < 0:
            raise ConfigError(f"txns must be >= 0, got {txns}")
        self.tstore = tstore
        self.spec = spec
        self.remaining = int(txns)
        self.uniforms = block_uniforms(rng)
        self.interval = 1.0 / target_rate if target_rate else 0.0
        self._deadline = 0.0
        self.chooser = spec.make_chooser(rng=self.uniforms)
        self.on_finished = on_finished
        self.issued = 0
        self._coordinator = partial(draw_coordinator, tstore.store, dc, self.uniforms)

    def start(self) -> None:
        """Begin issuing transactions (call before the simulator runs)."""
        tr = self.tstore.store.transport
        self._deadline = tr.now
        if self.remaining == 0:
            self._finish()
            return
        tr.post_at(tr.now, self._issue_next)

    # -- internals ---------------------------------------------------------------

    def _issue_next(self) -> None:
        if self.remaining <= 0:
            self._finish()
            return
        self.remaining -= 1
        self.issued += 1
        spec = self.spec
        keys = spec.sample_keys(self.chooser)
        txn = self.tstore.begin(coordinator=self._coordinator())
        for slot in spec.read_slots:
            txn.read(keys[slot])
        for slot in spec.write_slots:
            txn.write(keys[slot], spec.value_size)
        txn.commit(self._txn_done)

    def _txn_done(self, outcome: TxnOutcome) -> None:
        tr = self.tstore.store.transport
        now = tr.now
        delay = 0.0
        if self.interval > 0.0:
            self._deadline = max(now, self._deadline + self.interval)
            delay = self._deadline - now
        tr.post_at(now + delay, self._issue_next)

    def _finish(self) -> None:
        if self.on_finished is not None:
            cb, self.on_finished = self.on_finished, None
            cb(self)


class TxnRunner:
    """Deploy transactional clients, run to completion, report.

    Parameters mirror :class:`~repro.workload.client.WorkloadRunner`, with
    ``txns_total`` transactions spread across ``n_clients`` closed-loop
    clients (round-robin over datacenters).
    """

    def __init__(
        self,
        tstore: TransactionalStore,
        spec: TxnWorkloadSpec,
        n_clients: int = 8,
        txns_total: int = 1_000,
        target_throughput: Optional[float] = None,
        max_time: float = 3600.0,
        seed: int = 7,
        preload: bool = True,
        warmup_fraction: float = 0.0,
        biller: Optional[Biller] = None,
    ):
        if n_clients < 1:
            raise ConfigError(f"n_clients must be >= 1, got {n_clients}")
        if txns_total < n_clients:
            raise ConfigError("txns_total must be >= n_clients")
        if not (0.0 <= warmup_fraction < 1.0):
            raise ConfigError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
            )
        self.tstore = tstore
        self.spec = spec
        self.n_clients = int(n_clients)
        self.txns_total = int(txns_total)
        self.target_throughput = target_throughput
        self.max_time = float(max_time)
        self.seed = int(seed)
        self.do_preload = preload
        self.warmup_fraction = float(warmup_fraction)
        self.biller = biller
        self._usage = LevelUsage()
        self._finished_clients = 0
        self._t_last = 0.0
        self._warmup_remaining = int(self.txns_total * self.warmup_fraction)
        self._t_measure_start = 0.0
        #: set by :meth:`run`: the ``max_time`` guard ended the run first
        self.timed_out = False

    def run(self) -> RunReport:
        """Execute the transactional workload and return the report."""
        tstore, spec = self.tstore, self.spec
        store = tstore.store
        if self.do_preload:
            store.preload(KeyRange(spec.record_count), spec.value_size)
        store.add_listener(self._usage)
        store.add_listener(self)

        rngs = RngFactory(self.seed)
        per_client = self.txns_total // self.n_clients
        extra = self.txns_total - per_client * self.n_clients
        rate = (
            self.target_throughput / self.n_clients if self.target_throughput else None
        )
        n_dcs = len(store.topology.datacenters)
        t_start = store.transport.now
        for i in range(self.n_clients):
            txns = per_client + (1 if i < extra else 0)
            TxnClient(
                tstore,
                spec,
                txns=txns,
                rng=rngs.stream(f"txnclient.{i}"),
                target_rate=rate,
                dc=i % n_dcs,
                on_finished=self._client_finished,
            ).start()

        store.transport.run(until=t_start + self.max_time)
        self.timed_out = self._finished_clients < self.n_clients
        t_end = store.transport.now if self.timed_out else self._t_last
        duration = max(t_end - max(t_start, self._t_measure_start), 1e-9)

        summary = store.summary()
        txn = tstore.txn_summary()
        decided = txn["txns"]
        # Client-visible completed operations: every single-op read plus
        # every decided transaction outcome.
        ops = store.ops_completed() + decided
        txn["txns_per_s"] = decided / duration
        return RunReport(
            policy=tstore.policy.name if tstore.policy is not None else "one",
            workload=spec.name,
            ops_completed=ops,
            duration=duration,
            throughput=ops / duration,
            read_latency_mean=summary["read_latency_mean"],
            read_latency_p99=summary["read_latency_p99"],
            write_latency_mean=summary["write_latency_mean"],
            write_latency_p99=summary["write_latency_p99"],
            stale_rate=summary["stale_rate"],
            stale_rate_strict=store.oracle.stale_rate_strict,
            failures=summary["failures"],
            billable_bytes=summary["billable_bytes"],
            total_bytes=summary["total_bytes"],
            read_levels=dict(self._usage.read_levels),
            mean_propagation=summary["mean_propagation"],
            txn=txn,
        )

    # -- store listener interface -------------------------------------------------

    def on_op_complete(self, result: OpResult) -> None:
        """Single-op completions need no runner bookkeeping."""

    def on_txn_complete(self, outcome: TxnOutcome) -> None:
        """Warmup bookkeeping: reset all measurement state at the boundary."""
        if outcome.reason == "resolved-in-doubt":
            return  # a late verdict for an outcome already counted
        if self._warmup_remaining <= 0:
            return
        self._warmup_remaining -= 1
        if self._warmup_remaining == 0:
            self.tstore.reset_metrics()
            self._usage.read_levels.clear()
            self._t_measure_start = self.tstore.store.transport.now
            if self.biller is not None:
                self.biller.arm()

    def _client_finished(self, client: TxnClient) -> None:
        self._finished_clients += 1
        self._t_last = self.tstore.store.transport.now
        if self._finished_clients == self.n_clients:
            self.tstore.store.transport.stop()
