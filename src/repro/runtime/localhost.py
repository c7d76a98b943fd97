"""The localhost deployment: real protocol classes on either engine.

This module stands up the *unmodified*
:class:`~repro.txn.api.TransactionalStore` --- the same
:class:`~repro.txn.tm.TransactionManager` and
:class:`~repro.txn.participant.TxnParticipant` state machines the
simulator runs, imported from the same modules --- on a
:class:`LocalhostStore` over any :class:`~repro.runtime.interface.Transport`,
and drives it with :class:`~repro.txn.runner.TxnRunner`, the one
transactional driver:

- :func:`run_asyncio` is ``repro.run(RunSpec(backend="asyncio"))``: an
  :class:`~repro.runtime.aio.AsyncioTransport` (JSON wire codec, sampled
  link delays, timers on the wall clock) and per-node write-ahead logs
  that are real files (:class:`~repro.runtime.wal.FileWriteAheadLog`);
- :func:`repro.runtime.xval.run_sim_twin` is the same deployment on a
  :class:`~repro.runtime.sim.SimTransport` with in-memory logs.

:class:`LocalhostStore` stands in for the simulator's
:class:`~repro.cluster.store.ReplicatedStore`: a deliberately thin
node/placement facade that owns node liveness, hash placement, the
staleness oracle and a level-ONE read path, and offers the subset of the
store's surface that ``TxnRunner`` and
:class:`~repro.cluster.failures.FailureInjector` call, under the same
names. It contains **no protocol logic** --- every
prepare/vote/decision/recovery rule executes inside the shared txn
classes. (The simulator's storage nodes model service-time queues, which
are meaningless on a wall clock; the facade reads straight from replica
state after a sampled round trip.)
"""

from __future__ import annotations

import functools
import os
import shutil
import tempfile
import zlib
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import spawn_rng
from repro.common.stats import Histogram
from repro.cluster.coordinator import MessageSizes, OpResult
from repro.cluster.failures import FailureInjector
from repro.cluster.staleness import StalenessOracle
from repro.cluster.versions import Version
from repro.cost.billing import Bill
from repro.experiments.runner import RunOutcome
from repro.net.topology import Topology
from repro.obs.events import EventBus
from repro.runtime.aio import AsyncioTransport
from repro.runtime.interface import Transport
from repro.runtime.wal import FileWriteAheadLog
from repro.txn.api import TransactionalStore
from repro.txn.runner import TxnRunner
from repro.txn.wal import WriteAheadLog

if TYPE_CHECKING:
    from repro.facade import RunSpec

__all__ = ["LocalhostStore", "LocalhostSpec", "run_deployment", "run_asyncio"]


class _RuntimeNode:
    """One storage replica of the localhost facade: liveness plus state."""

    __slots__ = ("node_id", "up", "retired", "data", "writes_applied")

    def __init__(self, node_id: int):
        self.node_id = int(node_id)
        self.up = True
        self.retired = False
        self.data: Dict[str, Version] = {}
        self.writes_applied = 0


class LocalhostStore:
    """Node, placement and read facade backing a real ``TransactionalStore``.

    Exposes the surface the shared protocol classes touch on a deployment
    (``transport``, ``nodes``, ``sizes``, ``oracle``, ``write_seq``,
    ``config.seed``, replica placement, coordinator picking, node-event
    fan-out and a read path) plus what the run driver and the failure
    injector call: ``preload``, ``coordinator_pool``, ``add_listener``
    (read-completion hooks), ``events``, ``on_node_crash`` /
    ``on_node_recover``, ``ops_completed``, ``summary`` and
    ``reset_metrics``. No commit-protocol logic lives here.
    """

    def __init__(
        self,
        topology: Topology,
        transport: Transport,
        replication_factor: int = 3,
        seed: int = 0,
        default_value_size: int = 1000,
    ):
        if replication_factor < 1:
            raise ConfigError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        n = topology.n_nodes
        if replication_factor > n:
            raise ConfigError(
                f"replication_factor {replication_factor} exceeds cluster size {n}"
            )
        self.topology = topology
        self.transport = transport
        self.rf = int(replication_factor)
        #: the slice of ``StoreConfig`` the transaction classes consult
        self.config = SimpleNamespace(seed=int(seed))
        self.rng = spawn_rng(seed)
        self.sizes = MessageSizes()
        self.oracle = StalenessOracle()
        self.default_value_size = int(default_value_size)
        self.nodes: List[_RuntimeNode] = [_RuntimeNode(i) for i in range(n)]
        self.write_seq = 0
        #: structured run-event bus (the failure injector publishes here)
        self.events = EventBus()
        self._listeners: List[Any] = []
        self._op_complete_hooks: List[Callable[[OpResult], Any]] = []
        self._node_listeners: List[Any] = []
        self.reset_metrics()
        # Static membership: placement per key, the coordinator pool per
        # datacenter and the mean delay per link (the read path's snitch
        # order) are computed once.
        self._placement: Dict[str, Tuple[List[int], Tuple[int, ...]]] = {}
        self._coord_pools = [
            topology.nodes_in_dc(dc) for dc in range(len(topology.datacenters))
        ]
        self._mean_delay = functools.cache(
            lambda src, dst: topology.latency_model(src, dst).mean()
        )

    # -- placement ----------------------------------------------------------------

    def replica_sets(self, key: str) -> Tuple[List[int], Tuple[int, ...]]:
        """``(authoritative, extra)`` replicas; static hash placement.

        The localhost runtime has no elastic membership, so ``extra`` (the
        in-migration owners the sim store reports) is always empty, and a
        key is hashed once (callers must not mutate the memoized lists).
        """
        sets = self._placement.get(key)
        if sets is None:
            n = len(self.nodes)
            start = zlib.crc32(key.encode()) % n
            sets = self._placement[key] = ([(start + i) % n for i in range(self.rf)], ())
        return sets

    def all_replicas(self, key: str) -> List[int]:
        return list(self.replica_sets(key)[0])

    def preload(self, keys: List[str], value_size: Optional[int] = None) -> None:
        """Install one version per key on every replica (the load phase)."""
        size = value_size if value_size is not None else self.default_value_size
        t = self.transport.now
        seq = self.write_seq
        for key in keys:
            seq += 1
            version = Version(t, seq, size)
            for r in self.replica_sets(key)[0]:
                self.nodes[r].data[key] = version
            self.oracle.note_preload(key, version)
        self.write_seq = seq

    # -- coordinator picking ------------------------------------------------------

    def coordinator_pool(self, dc_index: int) -> List[int]:
        """The nodes of ``dc_index`` that can front client requests."""
        return self._coord_pools[dc_index]

    def _pick_coordinator(self):
        """A live node to front a transaction (``None`` = cluster down)."""
        for _ in range(4):
            idx = int(self.rng.integers(0, len(self.nodes)))
            if self.nodes[idx].up:
                return self.nodes[idx]
        live = self._any_live_node()
        return self.nodes[live] if live is not None else None

    def _any_live_node(self) -> Optional[int]:
        for node in self.nodes:
            if node.up:
                return node.node_id
        return None

    # -- listeners and node lifecycle ---------------------------------------------

    def add_listener(self, listener: Any) -> None:
        """Register an observer: ``on_op_complete`` hears every read."""
        self._listeners.append(listener)
        self._op_complete_hooks.append(listener.on_op_complete)

    def add_node_listener(self, listener: Any) -> None:
        self._node_listeners.append(listener)

    def on_node_crash(self, node_id: int) -> None:
        """Fail-stop ``node_id``: volatile state dies, handlers go silent."""
        node = self.nodes[node_id]
        if not node.up:
            return
        node.up = False
        for listener in self._node_listeners:
            listener.on_node_crash(node_id)

    def on_node_recover(self, node_id: int) -> None:
        """Bring ``node_id`` back; listeners run their WAL recovery passes."""
        node = self.nodes[node_id]
        if node.up:
            return
        node.up = True
        for listener in self._node_listeners:
            listener.on_node_recover(node_id)

    # -- read path ----------------------------------------------------------------

    def read(
        self,
        key: str,
        level: Any,
        done: Optional[Callable[[OpResult], Any]] = None,
        coordinator: Optional[int] = None,
    ) -> None:
        """Read ``key`` from one live replica after a sampled round trip.

        Level-ONE semantics (one replica answers), which is the level
        transactional reads dial with no policy installed --- and the only
        read level the localhost runtime offers: quorum assembly lives in
        the sim coordinator, whose service-queue model has no wall-clock
        counterpart here. The oracle captures the freshness bar at read
        *start* and judges the returned version at completion, exactly as
        the sim read path does. A replica that crashes before its answer
        is due never answers (fail-stop): the read fails ``unavailable``.
        """
        tr = self.transport
        t_start = tr.now
        result = OpResult("read", key, t_start, "ONE")
        replicas = [r for r in self.replica_sets(key)[0] if self.nodes[r].up]
        src = coordinator if coordinator is not None else self._any_live_node()
        if not replicas or src is None:
            result.error = "unavailable"
            tr.post_at(t_start, self._read_done, result, done)
            return
        # Nearest live replica (by mean link latency), as a snitch would route.
        replica = min(replicas, key=lambda r: (self._mean_delay(src, r), r))
        result.dc = self.topology.dc_of(src)
        expected = self.oracle.expected_version(key)
        # Request out, response back: two sampled one-way delays.
        delay = tr.sample_delay(src, replica) + tr.sample_delay(replica, src)
        tr.post_at(t_start + delay, self._respond, result, replica, expected, done)

    def _respond(
        self,
        result: OpResult,
        replica: int,
        expected: Any,
        done: Optional[Callable[[OpResult], Any]],
    ) -> None:
        node = self.nodes[replica]
        if node.up:
            version = node.data.get(result.key)
            result.version = version
            result.value_size = version.size if version is not None else 0
            result.replicas_contacted = 1
            result.ok = True
            result.stale = self.oracle.note_read(expected, version)
        else:
            result.error = "unavailable"
        self._read_done(result, done)

    def _read_done(
        self, result: OpResult, done: Optional[Callable[[OpResult], Any]]
    ) -> None:
        """Every read ends here: metrics, listeners, then the caller."""
        result.t_end = self.transport.now
        if result.ok:
            self.reads_ok += 1
            self.read_latency.add(max(result.t_end - result.t_start, 1e-9))
        else:
            self.failures["read_unavailable"] = self.failures.get("read_unavailable", 0) + 1
        for hook in self._op_complete_hooks:
            hook(result)
        if done is not None:
            done(result)

    # -- metrics ------------------------------------------------------------------

    def reset_metrics(self) -> None:
        """Zero the read counters and the oracle's (traffic counts on)."""
        self.oracle.reset_counters()
        self.reads_ok = 0
        self.failures: Dict[str, int] = {}
        self.read_latency = Histogram(lo=1e-5, hi=60.0)

    def ops_completed(self) -> int:
        """Successful reads (writes happen only inside transactions)."""
        return self.reads_ok

    def summary(self) -> Dict[str, Any]:
        """The ``ReplicatedStore.summary`` keys a run report reads."""
        traffic = self.transport.traffic
        return {
            "failures": dict(self.failures),
            "stale_rate": self.oracle.stale_rate,
            "read_latency_mean": self.read_latency.mean,
            "read_latency_p99": self.read_latency.percentile(99),
            "write_latency_mean": 0.0,
            "write_latency_p99": 0.0,
            "mean_propagation": self.oracle.mean_propagation_time(),
            "billable_bytes": traffic.billable_bytes(),
            "total_bytes": traffic.total_bytes(),
        }


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

    Builds a :class:`LocalhostStore` over ``transport`` and a
    :class:`~repro.txn.api.TransactionalStore` with no policy (reads at
    ONE) and ``wal_factory``'s logs, arms ``spec.failure_script``, then
    drives the clients with :class:`~repro.txn.runner.TxnRunner` --- no
    warmup window, bounded by ``LocalhostSpec.max_time``. The outcome
    carries a zero bill: localhost runs are not priced.
    """
    lspec = spec.localhost or LocalhostSpec()
    platform, workload = spec.platform, spec.txn_workload
    store = LocalhostStore(
        topology,
        transport,
        replication_factor=min(platform.rf, topology.n_nodes),
        seed=spec.seed,
        default_value_size=workload.value_size,
    )
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
        store=None,
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
    transport = AsyncioTransport(topology, rng=spec.seed, time_scale=lspec.time_scale)
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
