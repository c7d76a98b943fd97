"""Network substrate: topology, latency models and message transport.

The paper's staleness phenomenon is driven by *update propagation time*
across datacenter links (Fig. 1), so the network layer is a first-class
substrate here:

- :mod:`repro.net.latency` -- one-way delay models (lognormal heavy-tail WAN,
  deterministic for tests and LANs);
- :mod:`repro.net.topology` -- datacenters and node placement, with
  per-link-class tagging (intra-DC / inter-AZ / inter-region) used by the
  billing model;
- :mod:`repro.net.transport` -- the message fabric: samples a delay, counts
  transferred bytes per link class, delivers via an engine callback, and
  supports fault injection (partitions, extra delay).
"""

from repro.net.latency import LatencyModel, FixedLatency, LogNormalLatency
from repro.net.topology import Datacenter, Topology, LinkClass
from repro.net.transport import Network, TrafficMatrix

__all__ = [
    "LatencyModel",
    "FixedLatency",
    "LogNormalLatency",
    "Datacenter",
    "Topology",
    "LinkClass",
    "Network",
    "TrafficMatrix",
]
