"""A Cassandra-like geo-replicated key-value store (discrete-event model).

This package is the storage substrate of the reproduction -- the system the
paper runs Harmony and Bismar *on top of*. It models the parts of Apache
Cassandra that produce the consistency/performance/cost trade-off under
study:

- a consistent-hash token ring with pluggable replica placement
  (:mod:`ring`, :mod:`replication`, :mod:`partitioner`);
- per-operation tunable consistency levels, including numeric levels
  1..RF as used by Harmony (:mod:`consistency`);
- coordinators that fan writes out to all replicas but acknowledge after
  the level's quorum, and read from exactly the level's replica count
  (:mod:`coordinator`);
- per-node service queues so load shows up as queueing latency
  (:mod:`node`);
- ground-truth staleness measurement per the paper's Figure 1
  (:mod:`staleness`);
- read repair in the coordinator, hinted handoff and failure injection
  (:mod:`hints`, :mod:`failures`);
- the client-facing facade (:mod:`store`).
"""

from repro.cluster.consistency import ConsistencyLevel, Requirement, resolve_level
from repro.cluster.partitioner import token_of
from repro.cluster.ring import TokenRing
from repro.cluster.replication import (
    ReplicationStrategy,
    SimpleStrategy,
    NetworkTopologyStrategy,
)
from repro.cluster.versions import Version
from repro.cluster.node import StorageNode, ServiceModel
from repro.cluster.staleness import StalenessOracle
from repro.cluster.store import ReplicatedStore, StoreConfig, OpResult
from repro.cluster.failures import FailureInjector

__all__ = [
    "ConsistencyLevel",
    "Requirement",
    "resolve_level",
    "token_of",
    "TokenRing",
    "ReplicationStrategy",
    "SimpleStrategy",
    "NetworkTopologyStrategy",
    "Version",
    "StorageNode",
    "ServiceModel",
    "StalenessOracle",
    "ReplicatedStore",
    "StoreConfig",
    "OpResult",
    "FailureInjector",
]
