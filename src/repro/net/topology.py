"""Datacenter topology and node placement.

A :class:`Topology` owns the set of datacenters, assigns node ids to
datacenters, and classifies every (src, dst) node pair into a
:class:`LinkClass` -- the granularity at which both latency models and
network billing apply:

- ``LOCAL``      : same node (loopback; coordinator talking to itself);
- ``INTRA_DC``   : same datacenter -- LAN latency, free transfer on EC2;
- ``INTER_AZ``   : different datacenter, same region -- availability zones;
- ``INTER_REGION``: different region -- true WAN.

The paper's deployments map onto this directly: the EC2 cost experiments use
two availability zones of us-east-1 (``INTER_AZ``), Grid'5000 uses two sites
in France (modelled ``INTER_REGION``-like WAN latency, zero billing).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.common.errors import ConfigError
from repro.net.latency import FixedLatency, LatencyModel

__all__ = ["LinkClass", "Datacenter", "Topology"]


class LinkClass(enum.Enum):
    """Classification of a node pair for latency and billing purposes."""

    LOCAL = "local"
    INTRA_DC = "intra_dc"
    INTER_AZ = "inter_az"
    INTER_REGION = "inter_region"


@dataclass(frozen=True)
class Datacenter:
    """A named datacenter (or Grid'5000 site).

    Parameters
    ----------
    name:
        Unique datacenter name (e.g. ``"us-east-1a"``).
    region:
        Region grouping; two datacenters in the same region are availability
        zones of each other (``INTER_AZ`` links).
    """

    name: str
    region: str


class Topology:
    """Node placement plus per-link-class latency models.

    Parameters
    ----------
    datacenters:
        The datacenters of the deployment.
    nodes_per_dc:
        Node count per datacenter, parallel to ``datacenters``. Node ids are
        dense integers assigned datacenter-major: the first
        ``nodes_per_dc[0]`` ids land in ``datacenters[0]``, etc.
    latency:
        Mapping from :class:`LinkClass` to :class:`LatencyModel`. Missing
        classes fall back to defaults (0 local / 0.25 ms intra-DC /
        1 ms inter-AZ / 40 ms inter-region one-way).
    """

    _DEFAULTS: Mapping[LinkClass, float] = {
        LinkClass.LOCAL: 0.0,
        LinkClass.INTRA_DC: 0.00025,
        LinkClass.INTER_AZ: 0.001,
        LinkClass.INTER_REGION: 0.040,
    }

    def __init__(
        self,
        datacenters: Sequence[Datacenter],
        nodes_per_dc: Sequence[int],
        latency: Optional[Mapping[LinkClass, LatencyModel]] = None,
    ):
        if not datacenters:
            raise ConfigError("topology needs at least one datacenter")
        if len(datacenters) != len(nodes_per_dc):
            raise ConfigError(
                f"{len(datacenters)} datacenters but {len(nodes_per_dc)} node counts"
            )
        names = [dc.name for dc in datacenters]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate datacenter names in {names}")
        if any(n <= 0 for n in nodes_per_dc):
            raise ConfigError(f"every datacenter needs >= 1 node, got {nodes_per_dc}")

        self.datacenters: List[Datacenter] = list(datacenters)
        self.nodes_per_dc: List[int] = [int(n) for n in nodes_per_dc]
        self.n_nodes: int = sum(self.nodes_per_dc)

        self._node_dc: List[int] = []
        for dc_index, count in enumerate(self.nodes_per_dc):
            self._node_dc.extend([dc_index] * count)

        models: Dict[LinkClass, LatencyModel] = {
            cls: FixedLatency(d) for cls, d in self._DEFAULTS.items()
        }
        if latency:
            models.update(latency)
        self.latency_models: Dict[LinkClass, LatencyModel] = models

    # -- membership ----------------------------------------------------------

    def add_node(self, dc_index: int) -> int:
        """Place one new node in datacenter ``dc_index``; returns its id.

        Elastic bootstrap appends ids (existing placements never shift), so
        after growth node ids of a datacenter are no longer contiguous --
        :meth:`nodes_in_dc` scans the placement list instead of assuming
        dense ranges.
        """
        if not (0 <= dc_index < len(self.datacenters)):
            raise ConfigError(
                f"datacenter index {dc_index} outside 0..{len(self.datacenters) - 1}"
            )
        node_id = len(self._node_dc)
        self._node_dc.append(dc_index)
        self.nodes_per_dc[dc_index] += 1
        self.n_nodes += 1
        return node_id

    # -- placement queries ---------------------------------------------------

    def dc_of(self, node_id: int) -> int:
        """Datacenter index of ``node_id``."""
        return self._node_dc[node_id]

    def nodes_in_dc(self, dc_index: int) -> List[int]:
        """All node ids placed in datacenter ``dc_index``."""
        return [n for n, dc in enumerate(self._node_dc) if dc == dc_index]

    def link_class(self, src: int, dst: int) -> LinkClass:
        """Classify the (src, dst) node pair."""
        if src == dst:
            return LinkClass.LOCAL
        sdc, ddc = self._node_dc[src], self._node_dc[dst]
        if sdc == ddc:
            return LinkClass.INTRA_DC
        if self.datacenters[sdc].region == self.datacenters[ddc].region:
            return LinkClass.INTER_AZ
        return LinkClass.INTER_REGION

    def latency_model(self, src: int, dst: int) -> LatencyModel:
        """Latency model governing messages from ``src`` to ``dst``."""
        return self.latency_models[self.link_class(src, dst)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{dc.name}:{n}" for dc, n in zip(self.datacenters, self.nodes_per_dc)
        )
        return f"Topology({parts})"
