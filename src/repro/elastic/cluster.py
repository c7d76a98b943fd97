"""The elastic-cluster facade: live membership with streaming hand-off.

:class:`ElasticCluster` binds a :class:`~repro.cluster.store.ReplicatedStore`
to a :class:`~repro.elastic.rebalance.StreamingRebalancer` and exposes the
two capacity operations (scale out, scale in) plus the event log and the
summary block run reports carry. It is the surface both the scripted
scenarios (membership events on the simulation clock) and the autoscaler
drive.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.common.errors import ConfigError, ConsistencyError
from repro.cluster.store import ReplicatedStore
from repro.elastic.rebalance import RebalanceConfig, StreamingRebalancer

__all__ = ["ElasticCluster"]


class ElasticCluster:
    """Live-membership controller over a running store."""

    def __init__(
        self,
        store: ReplicatedStore,
        rebalance: Optional[RebalanceConfig] = None,
    ):
        if store.rebalancer is not None:
            raise ConfigError("store already has a rebalancer attached")
        self.store = store
        self.rebalancer = StreamingRebalancer(store, rebalance)
        self.nodes_initial = store.ring.n_nodes
        self.scale_outs = 0
        self.scale_ins = 0
        #: chronological membership event log (JSON-safe dicts).
        self.events: List[Dict[str, Any]] = []

    # -- capacity operations -------------------------------------------------------

    def bootstrap_node(self, dc_index: int, reason: str = "scripted") -> int:
        """Scale out: add one node to ``dc_index`` and stream its ranges in."""
        st = self.store
        node_id = st.bootstrap_node(dc_index)
        self.scale_outs += 1
        event = {
            "kind": "scale-out",
            "t": st.sim.now,
            "node": node_id,
            "dc": dc_index,
            "reason": reason,
        }
        self.events.append(event)
        st._notify_elastic(event)
        return node_id

    def decommission_node(self, node_id: int, reason: str = "scripted") -> None:
        """Scale in: drain ``node_id``'s ranges out, then retire it."""
        st = self.store
        st.decommission_node(node_id)
        self.scale_ins += 1
        event = {
            "kind": "scale-in",
            "t": st.sim.now,
            "node": int(node_id),
            "dc": st.topology.dc_of(node_id),
            "reason": reason,
        }
        self.events.append(event)
        st._notify_elastic(event)

    # -- queries -------------------------------------------------------------------

    @property
    def n_members(self) -> int:
        """Current ring member count (bootstrapped - decommissioned)."""
        return self.store.ring.n_nodes

    def members_in_dc(self, dc_index: int) -> List[int]:
        """Ring members placed in ``dc_index`` (excludes decommissioned)."""
        members = set(self.store.ring.members)
        return [
            n for n in self.store.topology.nodes_in_dc(dc_index) if n in members
        ]

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

    def summary(self) -> Dict[str, Any]:
        """The ``elastic`` block of a run report (JSON-safe, deterministic)."""
        out: Dict[str, Any] = {
            "nodes_initial": int(self.nodes_initial),
            "nodes_final": int(self.n_members),
            "scale_outs": int(self.scale_outs),
            "scale_ins": int(self.scale_ins),
            "events": [
                {k: ev[k] for k in sorted(ev)} for ev in self.events
            ],
        }
        out.update(self.rebalancer.summary())
        return out
