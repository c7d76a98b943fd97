"""The client-facing replicated store facade.

:class:`ReplicatedStore` wires together a transport, topology, ring,
replication strategy, nodes, coordinators, oracle and hint store, and
exposes the two operations clients issue:

    store.read(key, level, callback)
    store.write(key, level, callback, value_size=...)

Consistency ``level`` is per-operation (``int`` 1..RF or
:class:`~repro.cluster.consistency.ConsistencyLevel`) -- the property that
makes runtime-adaptive policies like Harmony possible at all.

The store also hosts the metric surfaces everything else consumes:
latency histograms, op/failure counters, the staleness oracle, the network
traffic matrix, and a listener interface for monitors.

Membership is **live**: :meth:`ReplicatedStore.bootstrap_node` and
:meth:`ReplicatedStore.decommission_node` change cluster capacity mid-run.
Each membership change rebuilds the token ring incrementally and computes
the exact ownership diff (which keys gained or lost replica owners). With a
streaming rebalancer attached (:mod:`repro.elastic`), moved data migrates
over the simulated network while foreground traffic continues -- reads
consult the *old* owners until a key's new owners are caught up, and writes
are forwarded to both. Without one, the diff is applied instantly (an
offline rebalance), which keeps bare-store membership tests simple.

The store runs on any :class:`~repro.runtime.interface.Transport` over its
topology: on the simulator (:class:`~repro.runtime.sim.SimTransport`) or on
the asyncio localhost transport (:mod:`repro.runtime.localhost`) -- the
same nodes, coordinators and read path on both engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, filterfalse
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import BlockUniforms, RngFactory, block_uniforms
from repro.common.stats import Histogram
from repro.cluster.consistency import LevelSpec
from repro.cluster.coordinator import HINT_OVERHEAD, Coordinator, OpResult, op_timed_out
from repro.cluster.hints import HintStore
from repro.cluster.node import ServiceModel, StorageNode
from repro.cluster.replication import (
    Placement,
    ReplicationStrategy,
    SimpleStrategy,
    make_placement,
)
from repro.cluster.ring import MovedRange, TokenRing
from repro.cluster.staleness import StalenessOracle
from repro.cluster.versions import Version
from repro.net.topology import Topology
from repro.obs.events import EventBus
from repro.runtime.deadlines import DeadlineQueue
from repro.runtime.interface import Transport

__all__ = ["StoreConfig", "ReplicatedStore", "MembershipChange", "draw_coordinator"]

#: Row size in bytes (YCSB default rows are 10 x 100 B fields ~= 1 KB).
DEFAULT_VALUE_SIZE = 1000


@dataclass(frozen=True)
class MembershipChange:
    """Everything one bootstrap/decommission moved, for the rebalancer.

    Attributes
    ----------
    joining / leaving:
        The node entering or exiting the ring (exactly one is set).
    moved_ranges:
        Exact primary-ownership token-range diff from the ring.
    pending:
        ``key -> (old_replicas, new_replicas)`` for every written key whose
        replica set changed -- the data that must be streamed before the new
        placement is authoritative for reads.
    """

    joining: Optional[int]
    leaving: Optional[int]
    moved_ranges: Tuple[MovedRange, ...]
    pending: Mapping[str, Tuple[Tuple[int, ...], Tuple[int, ...]]]


@dataclass
class StoreConfig:
    """Tunables of a simulated deployment.

    Attributes
    ----------
    vnodes:
        Virtual nodes per physical node on the token ring.
    servers_per_node:
        Request-handler parallelism per node.
    read_repair_chance:
        Probability a read triggers a background repair pass to the replicas
        it did not contact (Cassandra's ``read_repair_chance``).
    read_timeout / write_timeout:
        Coordinator timeouts in seconds (0 disables).
    seed:
        Root seed for all randomness in the deployment.
    """

    vnodes: int = 16
    servers_per_node: int = 4
    #: mutation-stage parallelism; ``None`` = same as ``servers_per_node``.
    mutation_servers_per_node: Optional[int] = None
    read_repair_chance: float = 0.1
    read_timeout: float = 5.0
    write_timeout: float = 5.0
    seed: int = 0
    service: ServiceModel = field(default_factory=ServiceModel)

    def __post_init__(self) -> None:
        if not (0.0 <= self.read_repair_chance <= 1.0):
            raise ConfigError(
                f"read_repair_chance must be in [0,1], got {self.read_repair_chance}"
            )


class ReplicatedStore:
    """A deployed, running geo-replicated store.

    Parameters
    ----------
    transport:
        Clock, messaging and timers of the deployment, built over
        ``topology``; the store seeds its link delays (see ``config.seed``).
    topology:
        Datacenters and node placement.
    strategy:
        Replica placement (defaults to ``SimpleStrategy(rf=3)``).
    config:
        Deployment tunables.
    """

    def __init__(
        self,
        transport: Transport,
        topology: Topology,
        strategy: Optional[ReplicationStrategy] = None,
        config: Optional[StoreConfig] = None,
    ):
        #: every protocol layer (coordinators, 2PC, failure hooks) speaks it
        self.transport = transport
        #: the engine and the fabric under it, for readers of their counters
        #: (``events_processed``, ``traffic``): the simulator, or the asyncio
        #: transport itself, and the transport's network on both engines
        self.sim = transport.engine
        self.network = transport.network
        self.topology = topology
        self.config = config or StoreConfig()
        self.strategy = strategy or SimpleStrategy(rf=min(3, topology.n_nodes))
        if self.strategy.rf_total > topology.n_nodes:
            raise ConfigError(
                f"RF={self.strategy.rf_total} exceeds {topology.n_nodes} nodes"
            )

        rngs = RngFactory(self.config.seed)
        self._rngs = rngs  # kept: bootstrapped nodes derive their streams here
        self.uniforms = block_uniforms(rngs.stream("store.coordinator"))
        # The root seed fixes every draw of the deployment, the transport's
        # link delays included (set before any message is sent).
        self.network.rng = rngs.stream("store.network")
        self.ring = TokenRing(topology.n_nodes, vnodes=self.config.vnodes)
        self.nodes: List[StorageNode] = [
            StorageNode(
                transport,
                node_id=i,
                service=self.config.service,
                servers=self.config.servers_per_node,
                mutation_servers=self.config.mutation_servers_per_node,
                rng=rngs.stream(f"store.node.{i}"),
            )
            for i in range(topology.n_nodes)
        ]
        # Snitch order per placement record (keyed by the replica list's id),
        # one table per DC shared by its coordinators; cleared with the memo.
        self._snitch_orders: List[Dict[int, Any]] = [{} for _ in topology.datacenters]
        self.coordinators: List[Coordinator] = [
            Coordinator(self, i) for i in range(topology.n_nodes)
        ]
        self.oracle = StalenessOracle()
        self.hints = HintStore()
        self.default_value_size = DEFAULT_VALUE_SIZE
        self.read_repair_chance = self.config.read_repair_chance
        #: coordinator timeouts, read per operation (assignable after
        #: construction). Every read shares the one, every write the other,
        #: so each kind needs a single armed timer, not one per operation.
        self.read_timeout = self.config.read_timeout
        self.write_timeout = self.config.write_timeout
        self._read_deadlines = DeadlineQueue(self.transport, op_timed_out)
        self._write_deadlines = DeadlineQueue(self.transport, op_timed_out)

        # metrics
        self.read_latency = Histogram(lo=1e-5, hi=60.0)
        self.write_latency = Histogram(lo=1e-5, hi=60.0)
        self.reads_ok = 0
        self.writes_ok = 0
        self.failures: Dict[str, int] = {}
        self.repairs_issued = 0
        self.write_seq = 0
        self._written_keys: List[str] = []  # by operations, in first-write order
        self._written_set: set = set()
        # The load phase: each batch as (key -> position, first write id, clock,
        # row size, len(_written_keys) then). A key of a batch from _pending on
        # installs at its first placement resolve and then joins _loaded.
        self._loads: List[Tuple[Mapping[str, int], int, float, int, int]] = []
        self._pending = 0
        self._loaded: set = set()
        self._listeners: List[Any] = []
        self._node_listeners: List[Any] = []
        #: structured run-event bus (crashes, partitions, heals, ...).
        #: Constructed once per store; with no subscribers ``emit`` is a
        #: single branch, so un-observed runs pay nothing.
        self.events = EventBus()
        # Pre-bound listener hooks: the operation-completion fan-out runs per
        # op, so the getattr probes happen once per add_listener, not per op.
        self._op_complete_hooks: List[Callable[[OpResult], Any]] = []
        self._propagated_hooks: List[Callable[[OpResult], Any]] = []
        # Per-key placement memo, the one dict hit of the per-op path. An
        # entry *points at* the strategy's shared record of the key's arc;
        # only a key with a pending migration owns a private record (old
        # owners authoritative, incoming owners extra). Invalidated wholesale
        # on membership changes and per key when a migration hand-off
        # completes (the rebalancer owns that signal).
        self._placement_cache: Dict[str, Placement] = {}
        # Resolved consistency requirements, keyed by the coordinator layer
        # on (level, rf, per-DC signature): Requirement objects are immutable
        # so one instance serves every operation with the same shape.
        self._requirement_cache: Dict[Any, Any] = {}
        #: streaming rebalancer (attached by :mod:`repro.elastic`); when
        #: ``None``, membership changes rebalance offline (instant copy).
        self.rebalancer: Optional[Any] = None
        # billable-capacity meter: instance-seconds integrated over the live
        # (non-retired) node count, so elastic runs bill capacity-over-time;
        # per-instance lifetimes back the hourly-rounded price books.
        self._instance_count = topology.n_nodes
        self._instance_seconds = 0.0
        self._instance_last_t = self.transport.now
        self._instance_spans: List[List[Optional[float]]] = [
            [self._instance_last_t, None] for _ in range(topology.n_nodes)
        ]
        # per-key count of writes dispatched but not yet settled (acked or
        # timed out). The rebalancer defers a migration hand-off while one
        # is outstanding: a write racing the stream must land on the old
        # owners before they stop being the read-visible set, or an acked
        # write could vanish behind the switch. Kept only with a rebalancer.
        self._inflight_writes: Dict[str, int] = {}
        # per-DC coordinator pools (invalidated on membership changes) so
        # clients route through current members: bootstrapped nodes start
        # coordinating, retired ones stop.
        self._coord_pools: Optional[Dict[int, List[int]]] = None

    # -- client API --------------------------------------------------------------

    def write(
        self,
        key: str,
        level: LevelSpec,
        done: Optional[Callable[[OpResult], Any]] = None,
        value_size: Optional[int] = None,
        coordinator: Optional[int] = None,
    ) -> None:
        """Issue one write at ``level``; ``done(result)`` fires on completion."""
        if coordinator is not None and not self.nodes[coordinator].retired:
            coord = self.coordinators[coordinator]  # a crashed one still fronts
        else:
            coord = self._pick_coordinator()
        size = value_size if value_size is not None else self.default_value_size
        if coord is None:
            self._fail_without_coordinator("write", key, done)
            return
        if key not in self._written_set:
            self._written_set.add(key)
            self._written_keys.append(key)
        coord.write(key, level, size, done)

    def read(
        self,
        key: str,
        level: LevelSpec,
        done: Optional[Callable[[OpResult], Any]] = None,
        coordinator: Optional[int] = None,
    ) -> None:
        """Issue one read at ``level``; ``done(result)`` fires with the result."""
        if coordinator is not None and not self.nodes[coordinator].retired:
            coord = self.coordinators[coordinator]
        else:
            coord = self._pick_coordinator()
        if coord is None:
            self._fail_without_coordinator("read", key, done)
            return
        coord.read(key, level, done)

    def add_listener(self, listener: Any) -> None:
        """Register an observer (monitors, trace recorders).

        Listeners must implement ``on_op_complete(OpResult)`` and may
        implement ``on_write_propagated(OpResult)``, which fires when the
        *last* live replica of a write acknowledges (``result.ack_delays``
        is complete at that point -- the observable propagation profile).
        """
        self._listeners.append(listener)
        self._op_complete_hooks.append(listener.on_op_complete)
        propagated = getattr(listener, "on_write_propagated", None)
        if propagated is not None:
            self._propagated_hooks.append(propagated)

    def add_node_listener(self, listener: Any) -> None:
        """Register an observer of node lifecycle events.

        Node listeners may implement ``on_node_crash(node_id)`` and
        ``on_node_recover(node_id)``; the transaction subsystem uses these
        to wipe volatile 2PC state on crash and run WAL recovery on
        restart.
        """
        self._node_listeners.append(listener)

    def _notify_propagated(self, result) -> None:
        for hook in self._propagated_hooks:
            hook(result)

    def _notify_node_event(self, event: str, node_id: int) -> None:
        for listener in self._node_listeners:
            hook = getattr(listener, event, None)
            if hook is not None:
                hook(node_id)

    def _notify_elastic(self, event: Dict[str, Any]) -> None:
        """Broadcast an elasticity event (scale/migration) to listeners.

        Listeners may implement ``on_elastic_event(event_dict)``; the
        cluster monitor uses it to keep ranges-moved / bytes-streamed /
        scale-event counters.
        """
        for listener in self._listeners:
            hook = getattr(listener, "on_elastic_event", None)
            if hook is not None:
                hook(event)

    # -- live membership -----------------------------------------------------------

    def replica_sets(self, key: str) -> Tuple[List[int], Tuple[int, ...]]:
        """``(authoritative, extra)`` replica node ids for ``key``.

        ``authoritative`` is the set reads consult and consistency
        requirements resolve against. While a migration of ``key`` is
        pending that is the *old* replica set (its nodes are guaranteed to
        hold the data); ``extra`` are the incoming owners that additionally
        receive every foreground write so the hand-off loses nothing. With
        no migration pending, ``authoritative`` is simply the strategy's
        placement and ``extra`` is empty.
        """
        info = self._placement_cache.get(key)
        if info is None:
            info = self.replica_info(key)
        return info[0], info[1]

    def replica_info(self, key: str) -> Placement:
        """``(authoritative, extra, replicas_by_dc)`` for ``key``, memoized.

        The per-operation placement resolve: one dict hit on the hot path
        instead of re-walking the strategy, the rebalancer's pending table
        and the datacenter census per operation. Entries are invalidated
        wholesale on membership changes (:meth:`_apply_membership_change`)
        and per key when a streaming migration hand-off completes
        (:meth:`invalidate_placement`, called by the rebalancer).
        """
        info = self._placement_cache.get(key)
        if info is not None:
            return info
        info = self.strategy.placement(key, self.ring, self.topology)
        if self._pending < len(self._loads) and key not in self._loaded:
            self._install(key, info[0])
        reb = self.rebalancer
        old = reb.pending_old_replicas(key) if reb is not None else None
        if old is not None:
            extra = tuple(n for n in info[0] if n not in old)
            info = make_placement(list(old), extra, self.topology)
        self._placement_cache[key] = info
        return info

    def invalidate_placement(self, key: Optional[str] = None) -> None:
        """Drop memoized placement for ``key`` (or everything when ``None``).

        Correctness contract: anything that changes what
        :meth:`replica_info` would answer -- ring membership, the
        rebalancer's pending table -- must call this before the next
        operation resolves placement.
        """
        if key is None:
            self._placement_cache.clear()
            for orders in self._snitch_orders:
                orders.clear()
        else:
            replicas = self._placement_cache.pop(key, (None,))[0]
            for orders in self._snitch_orders:
                orders.pop(id(replicas), None)

    def coordinator_pool(self, dc_index: int) -> List[int]:
        """Non-retired nodes of ``dc_index`` that can front client requests.

        Clients colocated with a datacenter draw their coordinator from
        here per operation (instead of a list frozen at run start), so
        membership changes reshape coordinator load: a bootstrapped node
        joins the pool, a retired one -- a terminated VM -- leaves it.
        """
        pools = self._coord_pools
        if pools is None:
            pools = {}
            for node in self.nodes:
                if node.retired:
                    continue
                pools.setdefault(self.topology.dc_of(node.node_id), []).append(
                    node.node_id
                )
            self._coord_pools = pools
        return pools.get(dc_index, [])

    def all_replicas(self, key: str) -> List[int]:
        """Every node that must converge on ``key`` right now.

        The authoritative set plus, during a pending migration, the
        incoming owners -- the single definition of migration visibility
        shared by repair, freshness deadlines and the 2PC fan-out.
        """
        authoritative, extra = self.replica_sets(key)
        return list(authoritative) + list(extra)

    def bootstrap_node(self, dc_index: int) -> int:
        """Add one node to datacenter ``dc_index`` and rebalance; returns its id.

        The token ring is rebuilt incrementally; the exact ownership diff is
        handed to the attached streaming rebalancer (or applied instantly
        when none is attached). Node listeners observe ``on_node_join``.
        """
        self._instances_tick()
        self._instance_count += 1
        self._coord_pools = None
        node_id = self.topology.add_node(dc_index)
        self.network.clear_topology_cache()
        self._instance_spans.append([self.transport.now, None])
        self.nodes.append(
            StorageNode(
                self.transport,
                node_id=node_id,
                service=self.config.service,
                servers=self.config.servers_per_node,
                mutation_servers=self.config.mutation_servers_per_node,
                rng=self._rngs.stream(f"store.node.{node_id}"),
            )
        )
        self.coordinators.append(Coordinator(self, node_id))
        self._apply_membership_change(
            lambda: self.ring.add_node(node_id), joining=node_id
        )
        self._notify_node_event("on_node_join", node_id)
        return node_id

    def decommission_node(self, node_id: int) -> None:
        """Remove ``node_id`` from the ring and drain its data away.

        The node keeps serving as an *old* owner until every key it held
        has been streamed to its new owners, then retires (final -- a
        retired node is never recovered). Node listeners observe
        ``on_node_leave`` when the drain starts.
        """
        node_id = int(node_id)
        if not (0 <= node_id < len(self.nodes)):
            raise ConfigError(f"unknown node {node_id}")
        if self.nodes[node_id].retired:
            raise ConfigError(f"node {node_id} is already decommissioned")
        survivors = [m for m in self.ring.members if m != node_id]
        self.strategy.validate_membership(survivors, self.topology)
        self._apply_membership_change(
            lambda: self.ring.remove_node(node_id), leaving=node_id
        )
        self._notify_node_event("on_node_leave", node_id)

    def _apply_membership_change(
        self,
        mutate_ring: Callable[[], List[MovedRange]],
        joining: Optional[int] = None,
        leaving: Optional[int] = None,
    ) -> MembershipChange:
        """Mutate the ring, diff every written key's placement, rebalance."""
        self._install_all()
        written = self.written_keys()
        old_sets = {
            key: tuple(self.strategy.replicas(key, self.ring, self.topology))
            for key in written
        }
        moved = mutate_ring()
        self.strategy.clear_cache()
        self.invalidate_placement()
        pending: Dict[str, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        for key in written:
            new = tuple(self.strategy.replicas(key, self.ring, self.topology))
            old = old_sets[key]
            if set(new) != set(old):
                pending[key] = (old, new)
        change = MembershipChange(
            joining=joining,
            leaving=leaving,
            moved_ranges=tuple(moved),
            pending=pending,
        )
        if self.rebalancer is not None:
            self.rebalancer.begin(change)
        else:
            self._offline_rebalance(change)
        return change

    def _offline_rebalance(self, change: MembershipChange) -> None:
        """Instantly hand moved keys to their new owners (no simulated traffic).

        The fallback when no streaming rebalancer is attached: correct (the
        newest surviving version lands on every new owner) but free, like
        :meth:`preload`. Real migration cost is the elastic subsystem's job.
        """
        for key, (old, new) in change.pending.items():
            best = None
            for r in old:
                v = self.nodes[r].data.get(key)
                if v is not None and (best is None or v.newer_than(best)):
                    best = v
            if best is None:
                continue
            for r in new:
                if r in old:
                    continue
                current = self.nodes[r].data.get(key)
                if current is None or best.newer_than(current):
                    self.nodes[r].data[key] = best
        if change.leaving is not None:
            self.retire_node(change.leaving)

    def retire_node(self, node_id: int) -> None:
        """Finalize a decommission: the node stops serving (and billing)."""
        self._instances_tick()
        self._instance_count -= 1
        self._coord_pools = None
        self._instance_spans[node_id][1] = self.transport.now
        self.nodes[node_id].retire()

    def _instances_tick(self) -> None:
        now = self.transport.now
        self._instance_seconds += self._instance_count * (now - self._instance_last_t)
        self._instance_last_t = now

    def instance_seconds(self) -> float:
        """Cumulative billable instance-seconds since deployment.

        Integrates the provisioned node count over simulated time: a
        bootstrapped node starts billing when it joins, a decommissioned
        node bills until it *retires* (it keeps serving as an old owner
        through the drain -- you pay for the VM until it is terminated).
        Crashed nodes keep billing; a crash is downtime, not a teardown.
        """
        self._instances_tick()
        return self._instance_seconds

    def instance_spans(self) -> List[Tuple[float, Optional[float]]]:
        """Per-instance ``(start, end)`` lifetimes (``end=None`` = running).

        The basis of hourly-rounded billing: clouds that round up bill each
        instance's own hours, so the biller needs lifetimes, not just the
        aggregate instance-seconds integral.
        """
        return [(s, e) for s, e in self._instance_spans]

    # -- in-flight write tracking (migration hand-off gate) -------------------------

    def _note_write_dispatched(self, key: str) -> None:
        self._inflight_writes[key] = self._inflight_writes.get(key, 0) + 1

    def _note_write_settled(self, key: str) -> None:
        count = self._inflight_writes.get(key, 0) - 1
        if count <= 0:
            self._inflight_writes.pop(key, None)
        else:
            self._inflight_writes[key] = count

    def write_in_flight(self, key: str) -> bool:
        """Whether a dispatched write of ``key`` has not yet settled."""
        return key in self._inflight_writes

    # -- operational hooks ---------------------------------------------------------

    def on_node_crash(self, node_id: int) -> None:
        """Crash a node and notify node listeners (volatile state is lost)."""
        self.nodes[node_id].crash()
        self._notify_node_event("on_node_crash", node_id)

    def on_node_recover(self, node_id: int) -> None:
        """Bring a node back up and replay its hints."""
        node = self.nodes[node_id]
        if node.retired:
            return  # decommissioned for good; a scripted recovery is a no-op
        node.recover()
        for key, version in self.hints.drain(node_id):
            # Replay from an arbitrary live coordinator colocated with
            # the data.
            src = self._any_live_node()
            if src is None:
                break
            self.transport.send(
                src,
                node_id,
                HINT_OVERHEAD + version.size,
                node.handle_write,
                key,
                version,
                self._hint_applied,
            )
        self._notify_node_event("on_node_recover", node_id)

    def _hint_applied(self, node_id: int, key: str, version) -> None:
        """A replayed hint landed: the write is now fully propagated.

        Emits the same propagated-notification path normal writes use, so
        monitors observe post-recovery convergence (the ack delay is the
        true write-to-apply lag, including the downtime).
        """
        result = OpResult("write", key, version.timestamp, "hint-replay")
        result.ok = True
        result.t_end = self.transport.now
        result.value_size = version.size
        result.replicas_contacted = 1
        result.ack_delays = [self.transport.now - version.timestamp]
        self._notify_propagated(result)

    def preload(
        self, keys: Mapping[str, int] | List[str], value_size: Optional[int] = None
    ) -> None:
        """Install an initial, fully consistent data set (YCSB's load phase).

        Placement is direct (no simulated traffic): every replica of every
        key receives the same version at the current clock. This is the
        standard shortcut for the benchmark load phase -- the transaction
        phase starts from the same state a real loaded cluster would be in,
        without simulating millions of load-phase operations.

        ``keys`` maps key to position (a list is read as ``key -> index``,
        :class:`~repro.workload.workloads.KeyRange` is the YCSB keyspace) and
        is kept as given: a key's write id is the batch's first id plus its
        position, and its version reaches its replicas and the oracle at the
        key's first :meth:`replica_info` resolve. A membership change, or a
        batch at another clock or row size, installs every key still
        pending; a key already resolved, written or loaded is installed at
        once. Results equal installing every key here.
        """
        size = value_size if value_size is not None else self.default_value_size
        t = self.transport.now
        if self._pending < len(self._loads) and self._loads[-1][2:4] != (t, size):
            self._install_all()
        n = len(keys)
        if not isinstance(keys, Mapping):
            keys = dict(zip(keys, range(n)))
        # A resolved key never misses again, and a written or loaded one
        # may be mid migration (the rebalancer reads replicas directly).
        get, touched = keys.get, chain(self._placement_cache, self._written_set)
        known = {k for k in touched if get(k) is not None}
        for earlier, *_ in self._loads:
            small, large = sorted((earlier, keys), key=len)
            known.update(k for k in small if large.get(k) is not None)
        self._loads.append((keys, self.write_seq + 1, t, size, len(self._written_keys)))
        self.write_seq += n
        for key in sorted(known, key=get):
            self._install(key, self.strategy.replicas(key, self.ring, self.topology))

    def _install(self, key: str, replicas: List[int]) -> None:
        """Place ``key``'s newest pending load version on ``replicas``, oracle too."""
        for keys, first, t, size, _ in reversed(self._loads[self._pending :]):
            if (position := keys.get(key)) is not None:
                version = Version(t, first + position, size)
                for r in replicas:
                    self.nodes[r].data[key] = version
                self.oracle.note_preload(key, version)
                self._loaded.add(key)
                return

    def _install_all(self) -> None:
        """Install every recorded load version no resolve has reached yet."""
        pending = chain.from_iterable(b[0] for b in self._loads[self._pending :])
        for key in filterfalse(self._loaded.__contains__, pending):
            self._install(key, self.strategy.replicas(key, self.ring, self.topology))
        self._pending = len(self._loads)
        self._loaded.clear()

    def written_keys(self) -> List[str]:
        """Keys ever written or loaded, in first-write order (the keys a
        membership change re-places), rebuilt from the batches on each call."""
        parts, done = [], 0
        for keys, *_, mark in self._loads:
            parts += (self._written_keys[done:mark], keys)
            done = mark
        parts.append(self._written_keys[done:])
        return list(dict.fromkeys(chain.from_iterable(parts)))

    # -- metrics -----------------------------------------------------------------

    def reset_metrics(self) -> None:
        """Zero all measurement surfaces, keeping data and cluster state.

        Called at the warmup/measurement boundary of experiment runs. The
        network traffic matrix is reset too (billing measures the
        measurement phase only).
        """
        self.read_latency = Histogram(lo=1e-5, hi=60.0)
        self.write_latency = Histogram(lo=1e-5, hi=60.0)
        self.reads_ok = 0
        self.writes_ok = 0
        self.failures = {}
        self.repairs_issued = 0
        self.oracle.reset_counters()
        self.network.traffic = type(self.network.traffic)()

    def ops_completed(self) -> int:
        """Successful reads + writes."""
        return self.reads_ok + self.writes_ok

    def summary(self) -> Dict[str, Any]:
        """One-shot metrics snapshot used by the experiment harness."""
        return {
            "reads_ok": self.reads_ok,
            "writes_ok": self.writes_ok,
            "failures": dict(self.failures),
            "stale_rate": self.oracle.stale_rate,
            "stale_reads": self.oracle.stale_reads,
            "read_latency_mean": self.read_latency.mean,
            "read_latency_p99": self.read_latency.percentile(99),
            "write_latency_mean": self.write_latency.mean,
            "write_latency_p99": self.write_latency.percentile(99),
            "mean_propagation": self.oracle.mean_propagation_time(),
            "billable_bytes": self.network.traffic.billable_bytes(),
            "total_bytes": self.network.traffic.total_bytes(),
            "repairs_issued": self.repairs_issued,
        }

    # -- internals ---------------------------------------------------------------

    def _pick_coordinator(self) -> Optional[Coordinator]:
        """Pick a live coordinator; ``None`` when the whole cluster is down."""
        # Random live node, as a client-side load balancer would pick.
        for _ in range(4):
            idx = self.uniforms.integers(0, len(self.nodes))
            if self.nodes[idx].up:
                return self.coordinators[idx]
        live = self._any_live_node()
        if live is None:
            return None
        return self.coordinators[live]

    def _fail_without_coordinator(self, kind, key, user_done) -> None:
        """Total outage: fail the operation as unavailable, don't raise."""
        result = OpResult(kind, key, self.transport.now, "n/a")
        result.error = "unavailable"
        self._count_failure(kind, "unavailable")
        self._op_done(result, user_done)

    def _any_live_node(self) -> Optional[int]:
        for node in self.nodes:
            if node.up:
                return node.node_id
        return None

    def _op_done(
        self, result: OpResult, user_done: Optional[Callable[[OpResult], Any]]
    ) -> None:
        """Every operation ends here: metrics, listeners, then the client."""
        if result.ok:
            latency = max(result.t_end - result.t_start, 1e-9)
            if result.kind == "read":
                self.reads_ok += 1
                self.read_latency.add(latency)
            else:
                self.writes_ok += 1
                self.write_latency.add(latency)
        for hook in self._op_complete_hooks:
            hook(result)
        if user_done is not None:
            user_done(result)

    def _count_failure(self, kind: str, reason: str) -> None:
        key = f"{kind}_{reason}"
        self.failures[key] = self.failures.get(key, 0) + 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicatedStore(nodes={self.topology.n_nodes}, "
            f"rf={self.strategy.rf_total}, ops={self.ops_completed()}, "
            f"stale_rate={self.oracle.stale_rate:.4f})"
        )


def draw_coordinator(store, dc: "int | None", uniforms: BlockUniforms) -> "int | None":
    """Every client driver's per-op coordinator: one draw from the live pool
    (elastic membership reshapes it); ``None`` (the store picks) if empty."""
    coords = store.coordinator_pool(dc) if dc is not None else None
    return coords[uniforms.integers(0, len(coords))] if coords else None
