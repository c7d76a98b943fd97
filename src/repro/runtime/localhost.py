"""The asyncio localhost deployment: real protocol classes, real clock.

This module is the asyncio backend's answer to
:func:`repro.txn.runner.deploy_txn`: it stands up the *unmodified*
:class:`~repro.txn.api.TransactionalStore` --- the same
:class:`~repro.txn.tm.TransactionManager` and
:class:`~repro.txn.participant.TxnParticipant` state machines the
simulator runs, imported from the same modules --- on an
:class:`~repro.runtime.aio.AsyncioTransport`:

- protocol messages cross a JSON wire codec with sampled link delays and
  per-link FIFO delivery;
- timers are ``loop.call_later`` handles on the wall clock;
- per-node write-ahead logs are real files
  (:class:`~repro.runtime.wal.FileWriteAheadLog`) under ``wal_dir``;
- staleness is judged by the same global
  :class:`~repro.cluster.staleness.StalenessOracle`.

What stands in for the simulator's :class:`~repro.cluster.store.ReplicatedStore`
is :class:`LocalhostStore`, a deliberately thin node/placement facade: it
owns node liveness, hash placement, the oracle and a local read path, but
contains **no protocol logic** --- every prepare/vote/decision/recovery
rule executes inside the shared txn classes. (The simulator's storage
nodes model service-time queues, which are meaningless on a wall clock;
the facade reads straight from replica state after a sampled round trip.)

:func:`run_localhost` drives a closed-loop transactional workload over
the deployment and returns the same ``txn_summary()`` surface sim runs
report, which is what :mod:`repro.runtime.xval` compares across backends.
"""

from __future__ import annotations

import asyncio
import functools
import os
import shutil
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import spawn_rng
from repro.cluster.coordinator import MessageSizes, OpResult
from repro.cluster.staleness import StalenessOracle
from repro.cluster.versions import Version
from repro.net.topology import Datacenter, Topology
from repro.runtime.aio import AsyncioTransport
from repro.runtime.wal import FileWriteAheadLog
from repro.txn.api import TransactionalStore, TxnConfig, TxnOutcome

__all__ = [
    "LocalhostStore",
    "LocalhostSpec",
    "LocalhostDeployment",
    "deploy_localhost",
    "run_localhost",
]


class _RuntimeNode:
    """One storage replica of the localhost facade: liveness plus state."""

    __slots__ = ("node_id", "up", "retired", "data", "writes_applied")

    def __init__(self, node_id: int):
        self.node_id = int(node_id)
        self.up = True
        self.retired = False
        self.data: Dict[str, Version] = {}
        self.writes_applied = 0


class _StoreKnobs:
    """The slice of ``StoreConfig`` the transaction classes consult."""

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = int(seed)


class LocalhostStore:
    """Node, placement and read facade backing a real ``TransactionalStore``.

    Exposes exactly the surface the shared protocol classes touch on a
    deployment: ``transport``, ``nodes``, ``sizes``, ``oracle``,
    ``write_seq``, ``config.seed``, replica placement, coordinator
    picking, node-event fan-out and a read path. No commit-protocol logic
    lives here.
    """

    def __init__(
        self,
        topology: Topology,
        transport: AsyncioTransport,
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
        self.config = _StoreKnobs(seed)
        self.rng = spawn_rng(seed)
        self.sizes = MessageSizes()
        self.oracle = StalenessOracle()
        self.default_value_size = int(default_value_size)
        self.nodes: List[_RuntimeNode] = [_RuntimeNode(i) for i in range(n)]
        self.write_seq = 0
        self.reads_ok = 0
        self.read_failures = 0
        self._listeners: List[Any] = []
        self._node_listeners: List[Any] = []
        # Static membership: placement per key and the mean delay per link
        # (the read path's snitch order) are computed once.
        self._placement: Dict[str, Tuple[List[int], Tuple[int, ...]]] = {}
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
        authoritative, extra = self.replica_sets(key)
        return list(authoritative) + list(extra)

    # -- coordinator picking ------------------------------------------------------

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

    # -- node lifecycle -----------------------------------------------------------

    def add_listener(self, listener: Any) -> None:
        self._listeners.append(listener)

    def add_node_listener(self, listener: Any) -> None:
        self._node_listeners.append(listener)

    def crash_node(self, node_id: int) -> None:
        """Fail-stop ``node_id``: volatile state dies, handlers go silent."""
        node = self.nodes[node_id]
        if not node.up:
            return
        node.up = False
        for listener in self._node_listeners:
            listener.on_node_crash(node_id)

    def recover_node(self, node_id: int) -> None:
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
        the sim read path does.
        """
        tr = self.transport
        t_start = tr.now
        expected = self.oracle.expected_version(key)
        result = OpResult("read", key, t_start, "ONE")

        replicas = [r for r in self.replica_sets(key)[0] if self.nodes[r].up]
        src = coordinator if coordinator is not None else self._any_live_node()
        if not replicas or src is None:
            result.error = "unavailable"
            self.read_failures += 1
            if done is not None:
                tr.post_at(t_start, done, result)
            return
        # Nearest live replica (by mean link latency), as a snitch would route.
        replica = min(replicas, key=lambda r: (self._mean_delay(src, r), r))
        result.dc = self.topology.dc_of(src)

        def _respond() -> None:
            version = self.nodes[replica].data.get(key)
            result.version = version
            result.value_size = version.size if version is not None else 0
            result.replicas_contacted = 1
            result.ok = True
            result.stale = self.oracle.note_read(expected, version)
            result.t_end = tr.now
            self.reads_ok += 1
            if done is not None:
                done(result)

        # Request out, response back: two sampled one-way delays.
        delay = tr.sample_delay(src, replica) + tr.sample_delay(replica, src)
        tr.post_at(tr.now + delay, _respond)

    # -- metrics ------------------------------------------------------------------

    def reset_metrics(self) -> None:
        self.oracle.reset_counters()
        self.reads_ok = 0
        self.read_failures = 0


@dataclass
class LocalhostSpec:
    """One closed-loop transactional run on the asyncio backend.

    Attributes
    ----------
    topology:
        Node placement and link latency models (the same object a sim run
        would deploy); ``None`` builds ``n_dcs`` x ``nodes_per_dc``.
    txns:
        Transactions to complete (across all clients).
    clients:
        Concurrent closed-loop clients; more clients on fewer hot keys is
        the contention dial cross-validation sweeps.
    writes_per_txn / reads_per_txn:
        Operations per transaction; reads go through the oracle-judged
        local read path, writes buffer until commit.
    n_keys / hot_keys / hot_fraction:
        Keyspace size and hotspot shape: with probability ``hot_fraction``
        a key is drawn from the first ``hot_keys`` keys.
    time_scale:
        Wall seconds per protocol second (see
        :class:`~repro.runtime.aio.AsyncioTransport`).
    wall_timeout:
        Hard cap on the run's wall-clock seconds; expiry cancels the
        clients and reports whatever completed (the CI smoke guard).
    wal_dir:
        Directory for per-node WAL files (``None`` = a fresh temp dir,
        removed again when the deployment closes).
    crashes:
        ``(at, node_id, duration)`` failure script on the protocol clock;
        ``duration None`` crashes forever.
    """

    topology: Optional[Topology] = None
    n_dcs: int = 1
    nodes_per_dc: int = 3
    replication_factor: int = 3
    txns: int = 50
    clients: int = 4
    writes_per_txn: int = 2
    reads_per_txn: int = 1
    n_keys: int = 100
    hot_keys: int = 4
    hot_fraction: float = 0.5
    value_size: int = 200
    seed: int = 0
    time_scale: float = 0.05
    wall_timeout: float = 60.0
    wal_dir: Optional[str] = None
    txn_config: TxnConfig = field(default_factory=TxnConfig)
    crashes: Tuple[Tuple[float, int, Optional[float]], ...] = ()

    def __post_init__(self) -> None:
        for name in ("txns", "clients", "writes_per_txn", "n_keys"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.reads_per_txn < 0:
            raise ConfigError(f"reads_per_txn must be >= 0, got {self.reads_per_txn}")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ConfigError(
                f"hot_fraction must be in [0, 1], got {self.hot_fraction}"
            )
        if self.wall_timeout <= 0:
            raise ConfigError(
                f"wall_timeout must be positive, got {self.wall_timeout}"
            )

    def sample_key(self, rng: Any) -> str:
        """Draw one key from the hotspot mix.

        Shared by the asyncio driver and the sim twin
        (:func:`repro.runtime.xval.run_sim_twin`): both backends sample
        the workload through this one method, so cross-validation compares
        execution engines, not workload generators.
        """
        if self.hot_keys and float(rng.random()) < self.hot_fraction:
            return f"key{int(rng.integers(0, min(self.hot_keys, self.n_keys)))}"
        return f"key{int(rng.integers(0, self.n_keys))}"

    def build_topology(self) -> Topology:
        """The run's topology: explicit, or ``n_dcs`` x ``nodes_per_dc``."""
        if self.topology is not None:
            return self.topology
        return Topology(
            [Datacenter(f"dc{i}", f"region{i}") for i in range(self.n_dcs)],
            [self.nodes_per_dc] * self.n_dcs,
        )


class LocalhostDeployment:
    """A wired localhost deployment: transport + facade store + txn store."""

    def __init__(self, spec: LocalhostSpec):
        self.spec = spec
        self.topology = spec.build_topology()
        self.transport = AsyncioTransport(
            self.topology, rng=spec.seed, time_scale=spec.time_scale
        )
        self.wal_dir = spec.wal_dir or tempfile.mkdtemp(prefix="repro-wal-")
        self.store = LocalhostStore(
            self.topology,
            self.transport,
            replication_factor=min(spec.replication_factor, self.topology.n_nodes),
            seed=spec.seed,
            default_value_size=spec.value_size,
        )
        self.tstore = TransactionalStore(
            self.store,
            policy=None,
            config=spec.txn_config,
            wal_factory=lambda i: FileWriteAheadLog(
                i, os.path.join(self.wal_dir, f"node{i}.wal")
            ),
        )

    def result(self, outcomes: int, timed_out: bool) -> Dict[str, Any]:
        """The run's metrics so far (``wal_dir`` is ``None`` for a temp dir)."""
        oracle = self.store.oracle
        return {
            "txn": self.tstore.txn_summary(),
            "stale_rate": oracle.stale_rate,
            "reads": oracle.reads,
            "mean_propagation_s": oracle.mean_propagation_time(),
            "outcomes": outcomes,
            "protocol_seconds": self.transport.now,
            "dropped_msgs": self.transport.dropped,
            "wal_dir": self.spec.wal_dir,
            "timed_out": timed_out,
        }

    def close(self) -> None:
        """Stop the transport, close the logs, remove a self-made WAL dir."""
        self.transport.close()
        for wal in self.tstore.wals:  # FileWriteAheadLogs, by the factory above
            wal.close()
        if self.spec.wal_dir is None:
            shutil.rmtree(self.wal_dir, ignore_errors=True)


def deploy_localhost(spec: LocalhostSpec) -> LocalhostDeployment:
    """Build (but do not start) a localhost deployment for ``spec``."""
    return LocalhostDeployment(spec)


async def _run_clients(dep: LocalhostDeployment) -> Dict[str, Any]:
    spec = dep.spec
    loop = asyncio.get_event_loop()
    dep.transport.start(loop)
    for at, node_id, duration in spec.crashes:
        dep.transport.set_timer_at(at, dep.store.crash_node, node_id)
        if duration is not None:
            dep.transport.set_timer_at(
                at + duration, dep.store.recover_node, node_id
            )

    rng = spawn_rng(spec.seed + 1)
    remaining = spec.txns
    outcomes: List[TxnOutcome] = []

    async def one_txn() -> None:
        txn = dep.tstore.begin()
        keys = sorted({spec.sample_key(rng) for _ in range(spec.writes_per_txn)})
        for _ in range(spec.reads_per_txn):
            txn.read(spec.sample_key(rng))
        for key in keys:
            txn.write(key, spec.value_size)
        fut: asyncio.Future = loop.create_future()
        txn.commit(lambda outcome: fut.done() or fut.set_result(outcome))
        outcomes.append(await fut)

    async def client() -> None:
        nonlocal remaining
        while remaining > 0:
            remaining -= 1
            await one_txn()

    await asyncio.gather(*(client() for _ in range(spec.clients)))
    return dep.result(len(outcomes), timed_out=False)


def run_localhost(spec: LocalhostSpec) -> Dict[str, Any]:
    """Run ``spec`` on the asyncio backend and return its metrics.

    Synchronous entry point: owns the event loop, enforces
    ``spec.wall_timeout`` as a hard wall-clock cap (on expiry the clients
    are cancelled and the partial run is reported with
    ``"timed_out": True``), and always closes the deployment, so no
    frame, timer callback or temp WAL dir outlives the run.
    """
    dep = deploy_localhost(spec)
    try:
        async def _main() -> Dict[str, Any]:
            try:
                return await asyncio.wait_for(
                    _run_clients(dep), timeout=spec.wall_timeout
                )
            except asyncio.TimeoutError:
                return dep.result(
                    dep.tstore.commits + dep.tstore.abort_count(), timed_out=True
                )

        return asyncio.run(_main())
    finally:
        dep.close()
