"""repro: self-adaptive cost-efficient consistency management in the cloud.

A full reproduction of Chihoub, *Self-Adaptive Cost-Efficient Consistency
Management in the Cloud* (IPDPS 2013 PhD Forum): the **Harmony** adaptive
consistency engine, the **Bismar** consistency-cost-efficiency policy, and
the **application behavior modeling** pipeline -- together with every
substrate they need, built from scratch:

- a discrete-event, Cassandra-like geo-replicated key-value store with
  tunable per-operation consistency (:mod:`repro.cluster`,
  :mod:`repro.simcore`, :mod:`repro.net`);
- a YCSB-compatible workload generator (:mod:`repro.workload`);
- atomic multi-key transactions: presumed-abort 2PC, per-node write-ahead
  logs and crash recovery over the same store (:mod:`repro.txn`);
- cluster elasticity: live membership, crash-safe streaming rebalance and
  cost-aware autoscaling (:mod:`repro.elastic`);
- a probabilistic stale-read model validated three ways
  (:mod:`repro.stale`);
- an EC2-style three-part billing model (:mod:`repro.cost`);
- monitoring (:mod:`repro.monitor`), baselines from related work
  (:mod:`repro.baselines`) and the experiment harness reproducing every
  result of the paper's evaluation (:mod:`repro.experiments`).

Quickstart
----------
Every experiment goes through one front door -- describe the run with a
:class:`RunSpec`, execute it with :func:`run`:

>>> import repro
>>> out = repro.run(repro.RunSpec(platform=repro.ec2_harmony_platform(),
...                               policy=repro.harmony_factory(0.05),
...                               ops=2000))
>>> out.report.stale_rate <= 0.05
True

The same spec shape covers transactional runs (``txn_workload=``),
elastic runs (``elastic=``) and the execution engine
(``backend="sim"`` deterministic simulator, the default, or
``backend="asyncio"`` for the wall-clock localhost deployment); every
run returns one :class:`~repro.experiments.runner.RunOutcome`.
"""

from repro.policy import ConsistencyPolicy, StaticPolicy
from repro.cluster import (
    ConsistencyLevel,
    ReplicatedStore,
    StoreConfig,
    SimpleStrategy,
    NetworkTopologyStrategy,
    FailureInjector,
)
from repro.net import Topology, Datacenter, LinkClass, LogNormalLatency
from repro.simcore import Simulator
from repro.monitor import ClusterMonitor
from repro.harmony import HarmonyEngine
from repro.bismar import BismarEngine
from repro.cost import PriceBook, EC2_US_EAST_2013, Biller, CostEstimator
from repro.behavior import BehaviorModel, BehaviorPolicy
from repro.txn import TransactionalStore, TxnConfig, TxnRunner
from repro.elastic import (
    AutoscalerConfig,
    CostAwareAutoscaler,
    ElasticSpec,
    RebalanceConfig,
    StreamingRebalancer,
)
from repro.workload import (
    WorkloadRunner,
    WorkloadSpec,
    WORKLOADS,
    heavy_read_update,
    TxnWorkloadSpec,
    bank_transfer_mix,
)
from repro.obs.slo import SLOSpec
from repro.runtime import BACKENDS, SimTransport
from repro.experiments.platforms import (
    Platform,
    ec2_cost_platform,
    ec2_harmony_platform,
    grid5000_bismar_platform,
    grid5000_harmony_platform,
    single_dc_platform,
    small_dc_platform,
    storm_txn_platform,
)
from repro.experiments.runner import (
    RunOutcome,
    bismar_factory,
    harmony_factory,
    named_policy_factory,
    static_factory,
)
from repro.experiments.scenarios import ScenarioSpec
from repro.experiments.sweep import SweepRunner
from repro.facade import RunSpec, run

__version__ = "1.0.0"

__all__ = [
    "ConsistencyPolicy",
    "StaticPolicy",
    "ConsistencyLevel",
    "ReplicatedStore",
    "StoreConfig",
    "SimpleStrategy",
    "NetworkTopologyStrategy",
    "FailureInjector",
    "Topology",
    "Datacenter",
    "LinkClass",
    "LogNormalLatency",
    "Simulator",
    "SimTransport",
    "ClusterMonitor",
    "HarmonyEngine",
    "BismarEngine",
    "PriceBook",
    "EC2_US_EAST_2013",
    "Biller",
    "CostEstimator",
    "BehaviorModel",
    "BehaviorPolicy",
    "WorkloadRunner",
    "WorkloadSpec",
    "WORKLOADS",
    "heavy_read_update",
    "TransactionalStore",
    "TxnConfig",
    "TxnRunner",
    "AutoscalerConfig",
    "CostAwareAutoscaler",
    "ElasticSpec",
    "RebalanceConfig",
    "StreamingRebalancer",
    "TxnWorkloadSpec",
    "bank_transfer_mix",
    # the unified run facade and its building blocks
    "RunSpec",
    "run",
    "RunOutcome",
    "BACKENDS",
    "ScenarioSpec",
    "SweepRunner",
    "SLOSpec",
    # platform presets
    "Platform",
    "single_dc_platform",
    "small_dc_platform",
    "ec2_harmony_platform",
    "grid5000_harmony_platform",
    "storm_txn_platform",
    "ec2_cost_platform",
    "grid5000_bismar_platform",
    # policy factories
    "static_factory",
    "harmony_factory",
    "bismar_factory",
    "named_policy_factory",
    "__version__",
]
