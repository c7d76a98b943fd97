"""The streaming rebalancer: crash-safe data migration over the network.

When a membership change moves token ranges, the keys inside them must
reach their new owners. The rebalancer does this *online*: foreground
traffic continues while a background pump streams each moved key from a
live old owner to every incoming owner through the store's transport
(real bytes, real latency, real interference with foreground traffic).

Correctness rests on the pending-ranges rule the store enforces while a
key's migration is in flight (:meth:`repro.cluster.store.ReplicatedStore.replica_sets`):

- **reads** consult the *old* owners -- the nodes guaranteed to hold the
  data -- so the move itself can never produce a stale read;
- **writes** are forwarded to old *and* incoming owners, and live incoming
  owners must acknowledge before the client ack fires (the raised
  effective write level of a bootstrap), so at every ack the data is on
  both sides of the hand-off;
- a key is handed off only when, at apply time, its incoming owner holds a
  version at least as new as every old owner's -- otherwise it is simply
  streamed again.

Crash safety falls out of the retry structure: a crash of the source or the
target mid-stream drops the transfer (down nodes drop work), the key stays
pending, and the pump re-streams it after ``attempt_timeout``. There is no
migration state to recover -- the pending table *is* the WAL, and
re-streaming is idempotent (last-write-wins reconciliation).

The rebalancer is also the elastic run's membership controller: its two
capacity operations (:meth:`StreamingRebalancer.bootstrap_node`,
:meth:`StreamingRebalancer.decommission_node`) call the store and log one
``scale-out`` / ``scale-in`` event each, and :meth:`StreamingRebalancer.summary`
is the ``elastic`` block run reports carry. Scripted scenarios and the
autoscaler both drive it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.common.errors import ConfigError, ConsistencyError
from repro.cluster.coordinator import REQUEST_OVERHEAD
from repro.cluster.store import MembershipChange, ReplicatedStore
from repro.cluster.versions import Version

__all__ = ["RebalanceConfig", "StreamingRebalancer"]

#: Maximum transfers started per pump pass: bounds a migration's network/CPU
#: footprint so foreground traffic keeps flowing (a stream throughput cap).
BATCH_SIZE = 64


@dataclass(frozen=True)
class RebalanceConfig:
    """Streaming tunables.

    Attributes
    ----------
    pump_interval:
        Seconds between streaming passes while migrations are active.
    attempt_timeout:
        Re-stream a (key, target) if its transfer has not applied within
        this window (covers crashes of either endpoint mid-stream).
    """

    pump_interval: float = 0.02
    attempt_timeout: float = 0.25

    def __post_init__(self) -> None:
        if self.pump_interval <= 0 or self.attempt_timeout <= 0:
            raise ConfigError("pump_interval and attempt_timeout must be positive")


class _KeyMigration:
    """Streaming state of one moved key."""

    __slots__ = ("key", "old", "targets_left", "attempts")

    def __init__(self, key: str, old: Tuple[int, ...], targets: Set[int]):
        self.key = key
        self.old = old
        self.targets_left = targets
        #: target -> simulated time of the last stream attempt.
        self.attempts: Dict[int, float] = {}


class StreamingRebalancer:
    """Owns the pending-ranges table, the streaming pump and the membership log."""

    def __init__(
        self, store: ReplicatedStore, config: Optional[RebalanceConfig] = None
    ):
        if store.rebalancer is not None:
            raise ConfigError("store already has a rebalancer attached")
        self.store = store
        self.config = config or RebalanceConfig()
        store.rebalancer = self
        self._pending: Dict[str, _KeyMigration] = {}
        self._pump_scheduled = False
        #: decommissioned nodes awaiting retirement (done when fully drained).
        self._retiring: List[int] = []

        # counters (consumed by run reports and the rebalance-stall oracle)
        self.migrations_started = 0
        self.migrations_completed = 0
        self.ranges_moved = 0
        self.keys_streamed = 0
        self.bytes_streamed = 0
        self.restreams = 0

        self.nodes_initial = store.ring.n_nodes
        self.scale_outs = 0
        self.scale_ins = 0
        #: chronological membership event log (JSON-safe dicts).
        self.events: List[Dict[str, Any]] = []

    # -- capacity operations -------------------------------------------------------

    def bootstrap_node(self, dc_index: int, reason: str = "scripted") -> int:
        """Scale out: add one node to ``dc_index`` and stream its ranges in."""
        node_id = self.store.bootstrap_node(dc_index)
        self.scale_outs += 1
        self._log("scale-out", node_id, dc_index, reason)
        return node_id

    def decommission_node(self, node_id: int, reason: str = "scripted") -> None:
        """Scale in: drain ``node_id``'s ranges out, then retire it."""
        st = self.store
        st.decommission_node(node_id)
        self.scale_ins += 1
        self._log("scale-in", int(node_id), st.topology.dc_of(node_id), reason)

    def _log(self, kind: str, node_id: int, dc_index: int, reason: str) -> None:
        """Record one scale event (after the store call) and announce it."""
        event = {
            "kind": kind,
            "t": self.store.transport.now,
            "node": node_id,
            "dc": dc_index,
            "reason": reason,
        }
        self.events.append(event)
        self.store.fire("on_elastic_event", event)

    def decommission_candidate(self) -> Optional[int]:
        """Highest-id node whose removal keeps the placement satisfiable.

        Prefers the most recently added node (scale-in undoes scale-out) and
        skips nodes whose departure would break per-DC replica quotas.
        """
        st = self.store
        for node_id in sorted(st.ring.members, reverse=True):
            survivors = [m for m in st.ring.members if m != node_id]
            try:
                st.strategy.validate_membership(survivors, st.topology)
            except ConsistencyError:
                continue  # its departure would break a replica quota
            return node_id
        return None

    # -- store-facing interface ----------------------------------------------------

    def pending_old_replicas(self, key: str) -> Optional[Tuple[int, ...]]:
        """Old owners of ``key`` if its migration is pending, else ``None``."""
        m = self._pending.get(key)
        return m.old if m is not None else None

    @property
    def active(self) -> bool:
        """Whether any migration is still streaming."""
        return bool(self._pending) or bool(self._retiring)

    def pending_keys(self) -> int:
        """Number of keys still awaiting hand-off."""
        return len(self._pending)

    def progress_signature(self) -> Tuple[int, int, int, int]:
        """Counters that advance whenever streaming makes any progress.

        Read by the rebalance-stall oracle: an active migration whose
        signature does not change for a budget of simulated seconds is a
        stall (nothing streamed, nothing retried, nothing settled).
        """
        return (
            self.keys_streamed,
            self.bytes_streamed,
            self.restreams,
            self.migrations_completed,
        )

    def begin(self, change: MembershipChange) -> None:
        """Accept one membership change's ownership diff and start streaming."""
        st = self.store
        self.migrations_started += 1
        self.ranges_moved += len(change.moved_ranges)
        for key in sorted(change.pending):
            old, new = change.pending[key]
            existing = self._pending.get(key)
            if existing is not None:
                # A second membership change landed before this key's first
                # hand-off finished. The original old set remains the only
                # set guaranteed to hold the data, so it stays
                # authoritative; only the targets are recomputed.
                targets = {n for n in new if n not in existing.old}
                if not targets:
                    del self._pending[key]
                    st.invalidate_placement(key)
                    continue
                existing.targets_left = targets
                existing.attempts = {}
            else:
                targets = {n for n in new if n not in old}
                if not targets:
                    continue
                self._pending[key] = _KeyMigration(key, tuple(old), targets)
        if change.leaving is not None:
            self._retiring.append(change.leaving)
        st.fire(
            "on_elastic_event",
            {
                "kind": "migration-start",
                "t": st.transport.now,
                "ranges": len(change.moved_ranges),
                "keys": len(change.pending),
                "joining": change.joining,
                "leaving": change.leaving,
            },
        )
        if not self._pending:
            self._settle()
            return
        self._schedule_pump(0.0)

    # -- the pump ------------------------------------------------------------------

    def _schedule_pump(self, delay: float) -> None:
        if self._pump_scheduled:
            return
        self._pump_scheduled = True
        tr = self.store.transport
        tr.post_at(tr.now + delay, self._pump)

    def _pump(self) -> None:
        self._pump_scheduled = False
        if not self._pending:
            self._settle()
            return
        st = self.store
        now = st.transport.now
        started = 0
        for key in sorted(self._pending):
            if started >= BATCH_SIZE:
                break
            m = self._pending[key]
            version, source = self._best_source(m)
            if version is None:
                if source is None and not st.write_in_flight(key):
                    # No old owner holds the key, none are down, and no
                    # write is racing toward them: nothing to move.
                    self._finish_key(m)
                # Else a down old owner (or an in-flight write) may still
                # produce the data: leave pending and retry.
                continue
            for target in sorted(m.targets_left):
                last = m.attempts.get(target)
                if last is not None and now - last < self.config.attempt_timeout:
                    continue
                if last is not None:
                    self.restreams += 1
                m.attempts[target] = now
                nbytes = REQUEST_OVERHEAD + version.size
                self.bytes_streamed += nbytes
                st.transport.send(
                    source,
                    target,
                    nbytes,
                    st.nodes[target].handle_write,
                    key,
                    version,
                    self._stream_applied,
                )
                started += 1
        if self._pending:
            self._schedule_pump(self.config.pump_interval)
        else:
            self._settle()

    def _best_source(self, m: _KeyMigration):
        """Newest version among *live* old owners, and a node that holds it.

        Returns ``(None, None)`` when no live old owner holds the key and
        none are down (nothing to move), and ``(None, node_id)`` when a down
        old owner might still hold the only copy (retry later).
        """
        st = self.store
        best: Optional[Version] = None
        holder: Optional[int] = None
        down: Optional[int] = None
        for r in m.old:
            node = st.nodes[r]
            if not node.up:
                down = r
                continue
            v = node.data.get(m.key)
            if v is not None and (best is None or v.newer_than(best)):
                best, holder = v, r
        if best is None:
            return None, down
        return best, holder

    def _stream_applied(self, node_id: int, key: str, version: Version) -> None:
        """A streamed version landed on an incoming owner."""
        m = self._pending.get(key)
        if m is None or node_id not in m.targets_left:
            return
        st = self.store
        # Hand off only if the target is caught up with every old owner at
        # this instant -- a foreground write may have raced the stream.
        have = st.nodes[node_id].data.get(key)
        best, _ = self._best_source(m)
        if best is not None and (have is None or best.newer_than(have)):
            self.restreams += 1
            m.attempts.pop(node_id, None)  # re-stream the newer version
            self._schedule_pump(0.0)
            return
        if st.write_in_flight(key):
            # A dispatched write has not settled: it may still be in the
            # old owners' queues. Handing ownership off now could strand an
            # about-to-be-acked write behind the switch -- wait it out.
            m.attempts.pop(node_id, None)
            self._schedule_pump(self.config.pump_interval)
            return
        m.targets_left.discard(node_id)
        m.attempts.pop(node_id, None)
        if not m.targets_left:
            self._finish_key(m)
            if not self._pending:
                self._settle()

    def _finish_key(self, m: _KeyMigration) -> None:
        self.keys_streamed += 1
        del self._pending[m.key]
        # The hand-off switches the key's authoritative set from the old
        # owners to the strategy placement: drop the memoized resolve.
        self.store.invalidate_placement(m.key)

    def _settle(self) -> None:
        """All migrations drained: retire leavers, announce completion."""
        if self._pending:
            return
        st = self.store
        retired = self._retiring
        if retired:
            self._retiring = []
            for node_id in retired:
                st.retire_node(node_id)
        if self.migrations_completed < self.migrations_started:
            self.migrations_completed = self.migrations_started
            st.fire(
                "on_elastic_event",
                {
                    "kind": "migration-complete",
                    "t": st.transport.now,
                    "keys_streamed": self.keys_streamed,
                    "bytes_streamed": self.bytes_streamed,
                    "retired": list(retired),
                },
            )

    def summary(self) -> Dict[str, Any]:
        """The ``elastic`` block of a run report (JSON-safe, deterministic)."""
        return {
            "nodes_initial": int(self.nodes_initial),
            "nodes_final": int(self.store.ring.n_nodes),
            "scale_outs": int(self.scale_outs),
            "scale_ins": int(self.scale_ins),
            "events": [{k: ev[k] for k in sorted(ev)} for ev in self.events],
            "migrations_started": self.migrations_started,
            "migrations_completed": self.migrations_completed,
            "ranges_moved": self.ranges_moved,
            "keys_streamed": self.keys_streamed,
            "bytes_streamed": self.bytes_streamed,
            "restreams": self.restreams,
            "pending_final": len(self._pending),
        }
