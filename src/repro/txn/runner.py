"""Closed-loop transactional clients and their run driver.

:class:`TxnClient` is a :class:`~repro.workload.client.ClosedLoopClient`
whose one issue is a whole transaction (begin, fan out the mix's reads at
the active policy's level, buffer the writes, commit, repeat); pacing and
completion come from the closed loop. :class:`TxnRunner` is the
:class:`~repro.workload.client.WorkloadRunner` that deploys them: it
builds the clients, counts decided transactions toward warmup and adds
the ``txn`` block to the report. :func:`repro.run` builds one when the
``RunSpec`` carries a ``txn_workload``.

The resulting :class:`~repro.workload.client.RunReport` carries the usual
read-side metrics (the transactional reads go through the normal read
path) plus a ``txn`` dict: commit/abort/in-doubt counts, lost-update
anomalies, and commit-latency percentiles.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.common.rng import RngFactory
from repro.txn.api import TransactionalStore, TxnOutcome
from repro.workload.client import ClosedLoopClient, RunReport, WorkloadRunner
from repro.workload.workloads import TxnWorkloadSpec

__all__ = ["TxnClient", "TxnRunner"]


class TxnClient(ClosedLoopClient):
    """One-outstanding-transaction client bound to a coordinator datacenter."""

    __slots__ = ("tstore",)

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
        super().__init__(
            tstore.store, spec, tstore.policy, txns, rng, target_rate, dc, on_finished
        )
        self.tstore = tstore

    def _issue(self, done: Callable[[TxnOutcome], Any]) -> None:
        spec = self.spec
        keys = spec.sample_keys(self.chooser)
        txn = self.tstore.begin(coordinator=self._coordinator())
        for slot in spec.read_slots:
            txn.read(keys[slot])
        for slot in spec.write_slots:
            txn.write(keys[slot], spec.value_size)
        txn.commit(done)


class TxnRunner(WorkloadRunner):
    """Deploy transactional clients, run to completion, report.

    Takes :class:`~repro.workload.client.WorkloadRunner`'s keyword
    arguments (but ``policy``, which is the store's, and ``client_mode``),
    with ``txns_total`` transactions spread across ``n_clients``
    closed-loop clients (round-robin over datacenters).
    """

    def __init__(
        self,
        tstore: TransactionalStore,
        spec: TxnWorkloadSpec,
        n_clients: int = 8,
        txns_total: int = 1_000,
        **driver: Any,
    ):
        super().__init__(
            tstore.store, spec, tstore.policy,
            n_clients=n_clients, ops_total=txns_total, **driver,
        )
        self.tstore = tstore

    def _new_client(
        self, i: int, ops: int, rngs: RngFactory, rate: Optional[float], dc: int
    ) -> TxnClient:
        return TxnClient(
            self.tstore,
            self.spec,
            txns=ops,
            rng=rngs.stream(f"txnclient.{i}"),
            target_rate=rate,
            dc=dc,
            on_finished=self._client_finished,
        )

    def _report(self, duration: float) -> RunReport:
        """Count each decided transaction as one op; add the ``txn`` block."""
        report = super()._report(duration)
        txn = self.tstore.txn_summary()
        txn["txns_per_s"] = txn["txns"] / duration
        report.ops_completed += txn["txns"]
        report.throughput = report.ops_completed / duration
        report.txn = txn
        report.n_clients = 0  # txn sweep rows and golden pins read "clients": 0
        return report

    def _reset_metrics(self) -> None:
        self.tstore.reset_metrics()

    # -- store listener interface -------------------------------------------------

    def on_op_complete(self, result: Any) -> None:
        """Single-op completions do not count toward warmup."""

    def on_txn_complete(self, outcome: TxnOutcome) -> None:
        """Each decided transaction counts toward warmup as one op."""
        if outcome.reason != "resolved-in-doubt":  # late verdict, already counted
            super().on_op_complete(outcome)
