"""Cluster elasticity: live membership, streaming rebalance, autoscaling.

The capacity-over-time axis of the simulated store:

- :class:`~repro.elastic.rebalance.StreamingRebalancer` -- crash-safe
  online migration of moved token ranges (pending-ranges reads, forwarded
  writes, re-stream on failure), and the two capacity operations
  (bootstrap/decommission over the store's live-membership API) with the
  membership event log and the report's ``elastic`` block;
- :class:`~repro.elastic.autoscale.CostAwareAutoscaler` -- a hysteretic
  control loop trading observed load pressure against the projected bill;
- :class:`~repro.elastic.runner.ElasticSpec` -- what changes during a run
  (``RunSpec.elastic``); :func:`repro.run` attaches it to the deployment.
"""

from repro.elastic.autoscale import AutoscalerConfig, CostAwareAutoscaler
from repro.elastic.rebalance import RebalanceConfig, StreamingRebalancer
from repro.elastic.runner import ElasticSpec

__all__ = [
    "AutoscalerConfig",
    "CostAwareAutoscaler",
    "RebalanceConfig",
    "StreamingRebalancer",
    "ElasticSpec",
]
