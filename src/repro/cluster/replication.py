"""Replica placement strategies.

Given a clockwise node walk (from :class:`~repro.cluster.ring.TokenRing`)
and the topology, a strategy picks the replica set:

- :class:`SimpleStrategy` -- first ``rf`` distinct nodes clockwise,
  topology-blind (Cassandra's SimpleStrategy);
- :class:`NetworkTopologyStrategy` -- a per-datacenter replica count,
  walking the ring and taking nodes from each datacenter until its quota is
  filled (the placement the paper's two-AZ / two-site deployments use).

Which replicas hold a key is a property of the vnode arc the key hashes
into, not of the key, so placement is resolved once per arc: the strategy
keeps one shared :data:`Placement` record per ring slot. Slot indices are valid
only for as long as the ring layout is -- live membership changes (elastic
bootstrap/decommission) must call :meth:`ReplicationStrategy.clear_cache`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.common.errors import ConfigError, ConsistencyError
from repro.cluster.ring import TokenRing
from repro.net.topology import Topology

__all__ = [
    "Placement",
    "make_placement",
    "ReplicationStrategy",
    "SimpleStrategy",
    "NetworkTopologyStrategy",
]


#: ``(replicas, extra, by_dc)``: who holds the keys of one vnode arc.
#: ``replicas`` are the nodes reads consult (primary first), ``extra`` the
#: incoming owners of a pending migration (``()`` on every arc record) and
#: ``by_dc`` the datacenter census of ``replicas``. One record serves every
#: key of its arc: treat all of it as read-only.
Placement = Tuple[List[int], Tuple[int, ...], Dict[int, int]]


def make_placement(
    replicas: List[int], extra: Tuple[int, ...], topology: Topology
) -> Placement:
    """Build a record; the one place replicas are counted per datacenter."""
    by_dc: Dict[int, int] = {}
    dc_of = topology.dc_of
    for node in replicas:
        dc = dc_of(node)
        by_dc[dc] = by_dc.get(dc, 0) + 1
    return replicas, extra, by_dc


class ReplicationStrategy:
    """Abstract replica-placement policy."""

    #: Total replication factor (set by subclasses).
    rf_total: int
    #: The arc table: ring slot -> shared record (created by subclasses).
    _arcs: Dict[int, Placement]

    def _place(self, slot: int, ring: TokenRing, topology: Topology) -> List[int]:
        """Walk the ring from ``slot`` and pick the arc's replicas."""
        raise NotImplementedError

    def placement(self, key: str, ring: TokenRing, topology: Topology) -> Placement:
        """The shared record of ``key``'s arc (walked on the arc's first use)."""
        slot = ring.slot_of(key)
        got = self._arcs.get(slot)
        if got is None:
            got = self._arcs[slot] = make_placement(
                self._place(slot, ring, topology), (), topology
            )
        return got

    def replicas(self, key: str, ring: TokenRing, topology: Topology) -> List[int]:
        """Ordered replica node ids for ``key`` (primary first)."""
        return self.placement(key, ring, topology)[0]

    def clear_cache(self) -> None:
        """Drop the arc table after a ring membership change."""
        self._arcs.clear()

    def validate_membership(self, members: Sequence[int], topology: Topology) -> None:
        """Raise if this placement cannot be satisfied by ``members``.

        Called before a decommission commits: the surviving member set must
        still be able to host every replica.
        """
        if len(members) < self.rf_total:
            raise ConsistencyError(
                f"RF={self.rf_total} cannot be placed on {len(members)} members"
            )


class SimpleStrategy(ReplicationStrategy):
    """First ``rf`` distinct nodes clockwise from the key's token."""

    def __init__(self, rf: int):
        if rf < 1:
            raise ConfigError(f"replication factor must be >= 1, got {rf}")
        self.rf_total = int(rf)
        self._arcs = {}

    def _place(self, slot: int, ring: TokenRing, topology: Topology) -> List[int]:
        if self.rf_total > ring.n_nodes:
            raise ConsistencyError(
                f"RF={self.rf_total} exceeds cluster size {ring.n_nodes}"
            )
        out: List[int] = []
        for node in ring.walk_from(slot):
            out.append(node)
            if len(out) == self.rf_total:
                break
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimpleStrategy(rf={self.rf_total})"


class NetworkTopologyStrategy(ReplicationStrategy):
    """Per-datacenter replica counts (Cassandra's NetworkTopologyStrategy).

    Parameters
    ----------
    rf_per_dc:
        Mapping from datacenter *index* to its replica count, e.g.
        ``{0: 3, 1: 2}`` for the paper's RF=5 across two availability zones.
    """

    def __init__(self, rf_per_dc: Mapping[int, int]):
        if not rf_per_dc:
            raise ConfigError("rf_per_dc must not be empty")
        if any(v < 0 for v in rf_per_dc.values()):
            raise ConfigError(f"negative replica count in {dict(rf_per_dc)}")
        self.rf_per_dc: Dict[int, int] = {
            int(dc): int(n) for dc, n in rf_per_dc.items() if n > 0
        }
        if not self.rf_per_dc:
            raise ConfigError("all datacenter replica counts are zero")
        self.rf_total = sum(self.rf_per_dc.values())
        self._arcs = {}

    def _place(self, slot: int, ring: TokenRing, topology: Topology) -> List[int]:
        for dc, need in self.rf_per_dc.items():
            if dc >= len(topology.datacenters):
                raise ConfigError(f"rf_per_dc references unknown datacenter {dc}")
            if need > topology.nodes_per_dc[dc]:
                raise ConsistencyError(
                    f"DC {dc} has {topology.nodes_per_dc[dc]} nodes, "
                    f"cannot hold {need} replicas"
                )
        remaining = dict(self.rf_per_dc)
        out: List[int] = []
        for node in ring.walk_from(slot):
            dc = topology.dc_of(node)
            need = remaining.get(dc, 0)
            if need > 0:
                out.append(node)
                remaining[dc] = need - 1
                if all(v == 0 for v in remaining.values()):
                    break
        if len(out) != self.rf_total:  # pragma: no cover - guarded by checks above
            raise ConsistencyError(
                f"could only place {len(out)}/{self.rf_total} replicas for arc {slot}"
            )
        return out

    def validate_membership(self, members: Sequence[int], topology: Topology) -> None:
        counts: Dict[int, int] = {}
        for node in members:
            dc = topology.dc_of(node)
            counts[dc] = counts.get(dc, 0) + 1
        for dc, need in self.rf_per_dc.items():
            if counts.get(dc, 0) < need:
                raise ConsistencyError(
                    f"DC {dc} would have {counts.get(dc, 0)} members, "
                    f"cannot hold {need} replicas"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NetworkTopologyStrategy({self.rf_per_dc})"
