"""Cluster elasticity: live membership, streaming rebalance, autoscaling.

The capacity-over-time axis of the simulated store:

- :class:`~repro.elastic.cluster.ElasticCluster` -- bootstrap/decommission
  with an event log, over the store's live-membership API;
- :class:`~repro.elastic.rebalance.StreamingRebalancer` -- crash-safe
  online migration of moved token ranges (pending-ranges reads, forwarded
  writes, re-stream on failure);
- :class:`~repro.elastic.autoscale.CostAwareAutoscaler` -- a hysteretic
  control loop trading observed load pressure against the projected bill;
- :class:`~repro.elastic.runner.ElasticSpec` -- what changes during a run
  (``RunSpec.elastic``); :func:`repro.run` attaches it to the deployment.
"""

from repro.elastic.autoscale import AutoscalerConfig, CostAwareAutoscaler
from repro.elastic.cluster import ElasticCluster
from repro.elastic.rebalance import RebalanceConfig, StreamingRebalancer
from repro.elastic.runner import ElasticSpec

__all__ = [
    "AutoscalerConfig",
    "CostAwareAutoscaler",
    "ElasticCluster",
    "RebalanceConfig",
    "StreamingRebalancer",
    "ElasticSpec",
]
