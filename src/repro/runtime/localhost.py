"""The localhost deployment: the platform's store on either engine.

:func:`run_deployment` builds the platform's own
:class:`~repro.cluster.store.ReplicatedStore` --- its replica placement,
its :class:`~repro.cluster.store.StoreConfig`, the workload's row size ---
on any :class:`~repro.runtime.interface.Transport`, puts the *unmodified*
:class:`~repro.txn.api.TransactionalStore` on it, and drives it with
:class:`~repro.txn.runner.TxnRunner`, the one transactional driver. The
store's nodes, service queues, coordinators, read repair and hinted
handoff are the simulator's, imported from the same modules:

- :func:`run_asyncio` is ``repro.run(RunSpec(backend="asyncio"))``: an
  :class:`~repro.runtime.aio.AsyncioTransport` (JSON wire codec, sampled
  link delays, timers and service queues on the wall clock) and per-node
  write-ahead logs that are real files
  (:class:`~repro.runtime.wal.FileWriteAheadLog`);
- :func:`repro.runtime.xval.run_sim_twin` is the same deployment on a
  simulator-built store with in-memory logs.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.common.errors import ConfigError
from repro.cluster.failures import FailureInjector
from repro.cluster.store import ReplicatedStore
from repro.cost.billing import Bill
from repro.experiments.runner import RunOutcome
from repro.net.topology import Topology
from repro.runtime.aio import AsyncioTransport
from repro.runtime.interface import Transport
from repro.runtime.wal import FileWriteAheadLog
from repro.txn.api import TransactionalStore
from repro.txn.runner import TxnRunner
from repro.txn.wal import WriteAheadLog

if TYPE_CHECKING:
    from repro.facade import RunSpec

__all__ = ["LocalhostSpec", "run_deployment", "run_asyncio"]


@dataclass
class LocalhostSpec:
    """The wall-clock half of an asyncio run (``RunSpec.localhost``).

    Attributes
    ----------
    time_scale:
        Wall seconds per protocol second (see
        :class:`~repro.runtime.aio.AsyncioTransport`).
    wall_timeout:
        Hard cap on the run's wall-clock seconds: the run ends at protocol
        time ``wall_timeout / time_scale`` (:attr:`max_time`, the same
        bound on xval's sim twin) and reports what completed, with
        ``RunOutcome.timed_out`` set.
    wal_dir:
        Directory for per-node WAL files (``None`` = a fresh temp dir,
        removed again when the run ends).
    """

    time_scale: float = 0.05
    wall_timeout: float = 60.0
    wal_dir: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("time_scale", "wall_timeout"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def max_time(self) -> float:
        """The wall guard on the protocol clock."""
        return self.wall_timeout / self.time_scale


def run_deployment(
    spec: "RunSpec",
    topology: Topology,
    transport: Transport,
    wal_factory: Optional[Callable[[int], WriteAheadLog]] = None,
) -> RunOutcome:
    """Run ``spec``'s transactional workload on a localhost deployment.

    Builds the platform's store on ``transport`` (which runs over
    ``topology``) and a :class:`~repro.txn.api.TransactionalStore` with no
    policy (reads at ONE) and ``wal_factory``'s logs, arms
    ``spec.failure_script``, then drives the clients with
    :class:`~repro.txn.runner.TxnRunner` --- no warmup window, bounded by
    ``LocalhostSpec.max_time``. The outcome carries a zero bill: localhost
    runs are not priced.
    """
    lspec = spec.localhost or LocalhostSpec()
    platform, workload = spec.platform, spec.txn_workload
    config = replace(
        platform.store_config, seed=spec.seed, default_value_size=workload.value_size
    )
    store = ReplicatedStore(transport, topology, platform.strategy_factory(), config)
    tstore = TransactionalStore(
        store, config=spec.resolved_txn_config(), wal_factory=wal_factory
    )
    if spec.failure_script is not None:
        spec.failure_script(FailureInjector(store))
    runner = TxnRunner(
        tstore,
        workload,
        # Platform defaults are sized for the simulator (tens of thousands
        # of ops in virtual time); a wall-clock run defaults to a
        # smoke-sized workload unless the caller asks for more.
        n_clients=(
            spec.clients
            if spec.clients is not None
            else min(platform.default_clients, 8)
        ),
        txns_total=spec.ops if spec.ops is not None else 50,
        target_throughput=spec.target_throughput,
        max_time=lspec.max_time,
        seed=spec.seed,
    )
    report = runner.run()
    return RunOutcome(
        report=report,
        bill=Bill(0.0, 0.0, 0.0, duration=report.duration, ops=report.ops_completed),
        policy=None,
        store=store,
        tstore=tstore,
        timed_out=runner.timed_out,
    )


def run_asyncio(spec: "RunSpec") -> RunOutcome:
    """``spec`` on the asyncio backend, with file WALs and the wall guard.

    Always closes the transport (and its event loop) and the logs, and
    removes a self-made WAL directory, so no frame, timer callback or
    temp file outlives the run.
    """
    lspec = spec.localhost or LocalhostSpec()
    topology = spec.platform.topology_factory()
    transport = AsyncioTransport(topology, time_scale=lspec.time_scale)
    wal_dir = lspec.wal_dir or tempfile.mkdtemp(prefix="repro-wal-")
    wals: List[FileWriteAheadLog] = []

    def file_wal(node_id: int) -> FileWriteAheadLog:
        wals.append(FileWriteAheadLog(node_id, os.path.join(wal_dir, f"node{node_id}.wal")))
        return wals[-1]

    try:
        return run_deployment(spec, topology, transport, wal_factory=file_wal)
    finally:
        transport.close()
        for wal in wals:
            wal.close()
        if lspec.wal_dir is None:
            shutil.rmtree(wal_dir, ignore_errors=True)
