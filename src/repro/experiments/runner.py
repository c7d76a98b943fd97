"""Policy factories and the outcome type of one experiment run.

A *policy factory* is a callable ``(store) -> ConsistencyPolicy`` that may
attach monitors to the store before returning the policy; a *failure
script* is a callable that schedules crashes/partitions on a
:class:`~repro.cluster.failures.FailureInjector` before the workload
starts. :func:`repro.run` (:mod:`repro.facade`) takes both in a
``RunSpec``, runs the deploy-run-bill pipeline and returns a
:class:`RunOutcome`, whose :meth:`RunOutcome.metrics` is the row a sweep
records for the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.common.errors import ConfigError
from repro.cluster.consistency import ConsistencyLevel, LevelSpec
from repro.cluster.failures import FailureInjector
from repro.cluster.store import ReplicatedStore
from repro.cost.billing import Bill
from repro.cost.estimator import CostEstimator
from repro.baselines.rationing import ConsistencyRationingPolicy
from repro.baselines.rwratio import ReadWriteRatioPolicy
from repro.bismar.engine import BismarEngine
from repro.harmony.engine import HarmonyEngine
from repro.monitor.collector import ClusterMonitor
from repro.elastic.autoscale import CostAwareAutoscaler
from repro.elastic.rebalance import StreamingRebalancer
from repro.obs.recorder import RunObserver
from repro.policy import ConsistencyPolicy, StaticPolicy
from repro.stale.dcmodel import DeploymentInfo
from repro.txn.api import TransactionalStore
from repro.workload.client import RunReport

__all__ = [
    "PolicyFactory",
    "FailureScript",
    "RunOutcome",
    "static_factory",
    "harmony_factory",
    "bismar_factory",
    "rationing_factory",
    "rwratio_factory",
    "named_policy_factory",
]

#: A policy factory receives the freshly built store (so it can attach
#: monitors/listeners) and returns the policy the clients will consult.
PolicyFactory = Callable[[ReplicatedStore], ConsistencyPolicy]

#: A failure script receives a fresh injector bound to the deployment and
#: schedules whatever crashes/partitions the scenario calls for.
FailureScript = Callable[[FailureInjector], None]

#: Seconds between the factory-built adaptive engines' decision refreshes.
UPDATE_INTERVAL = 0.25


def static_factory(
    read: LevelSpec, write: Optional[LevelSpec] = None, name: Optional[str] = None
) -> PolicyFactory:
    """Factory for a fixed level pair."""

    def build(store: ReplicatedStore) -> ConsistencyPolicy:
        return StaticPolicy(read, write, name=name)

    return build


def harmony_factory(tolerance: float, monitor_window: float = 2.0) -> PolicyFactory:
    """Factory for a Harmony engine wired to a fresh monitor."""

    def build(store: ReplicatedStore) -> ConsistencyPolicy:
        monitor = ClusterMonitor(window=monitor_window)
        store.observe(monitor)
        return HarmonyEngine(
            monitor,
            tolerance=tolerance,
            rf=store.strategy.rf_total,
            update_interval=UPDATE_INTERVAL,
            deployment=DeploymentInfo.from_store(store),
        )

    return build


def bismar_factory(prices, stale_cap: Optional[float] = None) -> PolicyFactory:
    """Factory for a Bismar engine wired to a fresh monitor + cost estimator."""

    def build(store: ReplicatedStore) -> ConsistencyPolicy:
        monitor = ClusterMonitor(window=2.0)
        store.observe(monitor)
        estimator = CostEstimator.for_store(store, prices)
        return BismarEngine(
            monitor,
            estimator,
            rf=store.strategy.rf_total,
            stale_cap=stale_cap,
            update_interval=UPDATE_INTERVAL,
            read_repair_chance=store.read_repair_chance,
            deployment=DeploymentInfo.from_store(store),
        )

    return build


def named_policy_factory(name: str, tolerance: float = 0.4) -> PolicyFactory:
    """Resolve a policy by its shootout name (CLI and scenario vocabulary).

    ``eventual`` (ONE/ONE), ``quorum``, ``strong`` (ALL/ALL), or
    ``harmony`` adapting at ``tolerance``. The single source of truth for
    the name->factory mapping used by ``repro txn`` and the policy-sweep
    scenarios.
    """
    if name == "eventual":
        return static_factory(1, 1, name="eventual")
    if name == "quorum":
        return static_factory(
            ConsistencyLevel.QUORUM, ConsistencyLevel.QUORUM, name="quorum"
        )
    if name == "strong":
        return static_factory(
            ConsistencyLevel.ALL, ConsistencyLevel.ALL, name="strong"
        )
    if name == "harmony":
        return harmony_factory(tolerance)
    raise ConfigError(
        f"unknown policy {name!r}; choose from "
        f"['eventual', 'harmony', 'quorum', 'strong']"
    )


def rationing_factory(threshold: float = 0.01) -> PolicyFactory:
    """Factory for the Kraska-style consistency-rationing baseline."""

    def build(store: ReplicatedStore) -> ConsistencyPolicy:
        monitor = ClusterMonitor(window=2.0)
        store.observe(monitor)
        return ConsistencyRationingPolicy(monitor, threshold=threshold)

    return build


def rwratio_factory(threshold: float = 4.0) -> PolicyFactory:
    """Factory for the Wang-style read/write-ratio baseline."""

    def build(store: ReplicatedStore) -> ConsistencyPolicy:
        monitor = ClusterMonitor(window=2.0)
        store.observe(monitor)
        return ReadWriteRatioPolicy(monitor, threshold=threshold)

    return build


@dataclass
class RunOutcome:
    """Everything one run produced, whatever its shape or engine.

    ``policy`` and ``store`` are the live objects from the run, so adaptive
    policies can be asked for their decision timelines
    (``policy.level_time_fractions()``) and the store for post-run summaries.
    ``tstore`` is set only by a transactional run, ``rebalancer`` (and
    ``autoscaler``, when one was configured) only by an elastic run; the
    report's ``txn`` / ``elastic`` blocks are filled to match. ``store`` is
    the store every operation ran on, on either engine. ``timed_out`` is
    true when the run's time guard ended it before every client finished.
    """

    report: RunReport
    bill: Bill
    policy: ConsistencyPolicy
    store: ReplicatedStore
    obs: Optional[RunObserver] = None
    tstore: Optional[TransactionalStore] = None
    rebalancer: Optional[StreamingRebalancer] = None
    autoscaler: Optional[CostAwareAutoscaler] = None
    timed_out: bool = False

    def metrics(self) -> Dict[str, Any]:
        """The run's result row (plain python scalars, JSON-safe).

        ``level_fractions`` is the fraction of policy decisions spent at
        each read level -- the compact consistency-level timeline adaptive
        engines expose (empty for a static policy).
        """
        rep = self.report
        extra: Dict[str, Any] = {}
        if rep.txn is not None:
            extra["txn"] = {
                k: (dict(sorted(v.items())) if isinstance(v, dict) else v)
                for k, v in sorted(rep.txn.items())
            }
        if rep.elastic is not None:
            extra["elastic"] = {k: rep.elastic[k] for k in sorted(rep.elastic)}
        if rep.cohorts is not None:
            extra["cohorts"] = [
                {k: c[k] for k in sorted(c)} for c in rep.cohorts
            ]
        fractions_fn = getattr(self.policy, "level_time_fractions", None)
        fractions = fractions_fn() if callable(fractions_fn) else {}
        return {
            **extra,
            "client_mode": rep.client_mode,
            "clients": int(rep.n_clients),
            "policy": rep.policy,
            "workload": rep.workload,
            "ops_completed": int(rep.ops_completed),
            "duration_s": float(rep.duration),
            "throughput_ops_s": float(rep.throughput),
            "read_latency_mean_ms": float(rep.read_latency_mean * 1e3),
            "read_latency_p99_ms": float(rep.read_latency_p99 * 1e3),
            "write_latency_mean_ms": float(rep.write_latency_mean * 1e3),
            "write_latency_p99_ms": float(rep.write_latency_p99 * 1e3),
            "stale_rate": float(rep.stale_rate),
            "stale_rate_strict": float(rep.stale_rate_strict),
            "cost_total_usd": float(self.bill.total),
            "cost_per_kop_usd": float(self.bill.cost_per_kop),
            "read_levels": {k: int(v) for k, v in sorted(rep.read_levels.items())},
            "level_fractions": dict(
                sorted({str(k): float(v) for k, v in fractions.items()}.items())
            ),
        }
