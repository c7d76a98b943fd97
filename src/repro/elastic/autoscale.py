"""The cost-aware autoscaler: capacity tracking load and the bill.

A control loop on the simulation clock that polls the observable cluster
state -- the :class:`~repro.monitor.collector.ClusterMonitor`'s arrival
rates and latency EWMAs, plus per-node service-stage utilization and queue
depth -- and decides scale-out / scale-in through an
:class:`~repro.elastic.cluster.ElasticCluster`.

The decision logic is deliberately asymmetric, the way production
autoscalers are:

- **scale out** on *observed* pressure: measured stage utilization or queue
  depth above threshold for several consecutive polls;
- **scale in** on *projected* headroom: you cannot observe a smaller
  cluster, so the counterfactual is modelled with the same
  :meth:`~repro.cost.provisioning.ProvisioningAdvisor.stage_utilization`
  check the provisioning sweep uses -- shrink only when the smaller cluster
  would still sit comfortably under the scale-out threshold, and annotate
  the decision with the Bismar-style $/op saving.

Hysteresis is threefold: breaches must persist for ``consecutive`` polls, a
``cooldown`` follows every membership change, and no decision fires while a
migration is still streaming (one capacity change at a time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.common.errors import ConfigError
from repro.cluster.consistency import quorum
from repro.cost.pricing import PriceBook
from repro.cost.provisioning import ProvisioningAdvisor, WorkloadEnvelope
from repro.elastic.cluster import ElasticCluster
from repro.monitor.collector import ClusterMonitor

__all__ = ["AutoscalerConfig", "CostAwareAutoscaler"]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Control-loop tunables.

    Attributes
    ----------
    interval:
        Poll period (simulated seconds).
    scale_out_util / scale_in_util:
        Stage-utilization thresholds. Observed utilization above the first
        arms a scale-out; below the second (with a feasible projection)
        arms a scale-in. Keep them apart -- the gap is the deadband that
        prevents flapping.
    queue_depth_high:
        Mean queued requests per live node that forces a scale-out even if
        utilization looks acceptable (queues are the leading indicator).
    consecutive:
        Polls a breach must persist before acting.
    cooldown:
        Seconds after any membership change during which no new decision
        fires.
    min_nodes / max_nodes:
        Hard capacity bounds (``min_nodes`` is additionally floored at the
        replication factor).
    headroom:
        Scale-in safety margin: the projected utilization of the smaller
        cluster must stay under ``scale_out_util * headroom``.
    """

    interval: float = 0.25
    scale_out_util: float = 0.70
    scale_in_util: float = 0.30
    queue_depth_high: float = 4.0
    consecutive: int = 3
    cooldown: float = 1.5
    min_nodes: int = 0
    max_nodes: int = 256
    headroom: float = 0.8

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigError(f"interval must be positive, got {self.interval}")
        if not (0.0 < self.scale_in_util < self.scale_out_util <= 1.5):
            raise ConfigError(
                "need 0 < scale_in_util < scale_out_util "
                f"(got {self.scale_in_util}, {self.scale_out_util})"
            )
        if self.consecutive < 1:
            raise ConfigError("consecutive must be >= 1")
        if self.cooldown < 0:
            raise ConfigError("cooldown must be >= 0")
        if not (0.0 < self.headroom <= 1.0):
            raise ConfigError(f"headroom must be in (0, 1], got {self.headroom}")


class CostAwareAutoscaler:
    """Polls the monitor, scales the cluster, logs every decision."""

    def __init__(
        self,
        cluster: ElasticCluster,
        monitor: ClusterMonitor,
        prices: PriceBook,
        config: Optional[AutoscalerConfig] = None,
    ):
        self.cluster = cluster
        self.monitor = monitor
        self.config = config or AutoscalerConfig()
        store = cluster.store
        self.advisor = ProvisioningAdvisor(
            prices,
            [[0.0]],  # utilization/pricing only; no WAN consistency sweep
            service=store.config.service,
            servers_per_node=store.config.servers_per_node,
            mutation_servers_per_node=store.config.mutation_servers_per_node,
        )
        self.min_nodes = max(self.config.min_nodes, store.strategy.rf_total)
        self._streak_out = 0
        self._streak_in = 0
        self._last_change_t = -1e18
        self._last_busy = 0.0
        self._last_tick_t: Optional[float] = None
        self._started = False
        self._stopped = False
        #: decision log: one JSON-safe dict per scale action.
        self.decisions: List[Dict[str, Any]] = []
        self.ticks = 0

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Begin polling (call once, before or during the run)."""
        if self._started:
            raise ConfigError("autoscaler already started")
        self._started = True
        self._stopped = False
        self.cluster.store.sim.post(self.config.interval, self._tick)

    def stop(self) -> None:
        """Stop polling (the workload ended; no more capacity decisions)."""
        self._stopped = True

    # -- signals -------------------------------------------------------------------

    def observed_utilization(self) -> float:
        """Measured busy fraction of live nodes since the previous poll.

        The ratio of server-seconds actually worked to server-seconds
        available across both service stages -- a direct observation, no
        model involved.
        """
        st = self.cluster.store
        now = st.sim.now
        busy = 0.0
        capacity_rate = 0.0
        for node_id in st.ring.members:
            node = st.nodes[node_id]
            busy += node.resource.busy_seconds() + node.mutation_resource.busy_seconds()
            capacity_rate += node.resource.servers + node.mutation_resource.servers
        if self._last_tick_t is None:
            self._last_busy = busy
            return 0.0
        dt = now - self._last_tick_t
        delta = busy - self._last_busy
        self._last_busy = busy
        if dt <= 0 or capacity_rate <= 0:
            return 0.0
        return delta / (dt * capacity_rate)

    def mean_queue_depth(self) -> float:
        """Mean queued requests per live node (both stages)."""
        st = self.cluster.store
        members = st.ring.members
        if not members:
            return 0.0
        queued = sum(
            st.nodes[n].resource.queued + st.nodes[n].mutation_resource.queued
            for n in members
        )
        return queued / len(members)

    def _envelope(self, snapshot) -> WorkloadEnvelope:
        """The monitor's view of offered load, as a provisioning envelope."""
        return WorkloadEnvelope(
            read_rate=max(snapshot.read_rate, 0.0),
            write_rate=max(snapshot.write_rate, 0.0),
            hot_key_write_rate=max(snapshot.write_rate, 0.0) * 0.01,
            data_size_bytes=1,  # capacity check only; storage priced elsewhere
            max_utilization=self.config.scale_out_util,
        )

    def cost_per_kop(self, n_nodes: int, snapshot) -> float:
        """Bismar-style $/kop of running ``n_nodes`` at the observed rate."""
        rate = snapshot.read_rate + snapshot.write_rate
        if rate <= 0:
            return 0.0
        hourly = n_nodes * self.advisor.prices.instance_hour
        return hourly / (rate * 3.6)  # $/h over kops/h

    # -- the control loop ----------------------------------------------------------

    def _tick(self) -> None:
        if self._stopped:
            return
        cfg = self.config
        cluster = self.cluster
        st = cluster.store
        now = st.sim.now
        self.ticks += 1
        util = self.observed_utilization()
        self._last_tick_t = now
        queue = self.mean_queue_depth()
        snapshot = self.monitor.snapshot(now)
        n = cluster.n_members

        in_cooldown = (now - self._last_change_t) < cfg.cooldown
        migrating = cluster.rebalancer.active
        if migrating or in_cooldown:
            # One capacity change at a time; breaches during a move do not
            # accumulate toward the next one.
            self._streak_out = 0
            self._streak_in = 0
        elif (util > cfg.scale_out_util or queue > cfg.queue_depth_high) and (
            n < cfg.max_nodes
        ):
            self._streak_out += 1
            self._streak_in = 0
            if self._streak_out >= cfg.consecutive:
                self._scale_out(now, n, util, queue, snapshot)
        elif util < cfg.scale_in_util and n > self.min_nodes:
            self._streak_in += 1
            self._streak_out = 0
            if self._streak_in >= cfg.consecutive:
                self._try_scale_in(now, n, util, snapshot)
        else:
            self._streak_out = 0
            self._streak_in = 0
        st.sim.post(cfg.interval, self._tick)

    def _scale_out(self, now, n, util, queue, snapshot) -> None:
        cluster = self.cluster
        # Fill the emptiest datacenter (lowest index on ties): keeps the
        # per-DC balance the placement strategies assume.
        dcs = range(len(cluster.store.topology.datacenters))
        dc = min(dcs, key=lambda d: (len(cluster.members_in_dc(d)), d))
        node_id = cluster.bootstrap_node(dc, reason="autoscale")
        self._record(
            now,
            "scale-out",
            node_id,
            util=util,
            queue=queue,
            cost_per_kop_before=self.cost_per_kop(n, snapshot),
            cost_per_kop_after=self.cost_per_kop(n + 1, snapshot),
        )

    def _try_scale_in(self, now, n, util, snapshot) -> None:
        cfg = self.config
        cluster = self.cluster
        candidate = cluster.decommission_candidate()
        if candidate is None:
            self._streak_in = 0
            return
        env = self._envelope(snapshot)
        rf = cluster.store.strategy.rf_total
        projected = self.advisor.stage_utilization(
            env, n - 1, rf, read_level=quorum(rf)
        )
        if projected > cfg.scale_out_util * cfg.headroom:
            # The smaller cluster would run too hot: stay put.
            self._streak_in = 0
            return
        cluster.decommission_node(candidate, reason="autoscale")
        self._record(
            now,
            "scale-in",
            candidate,
            util=util,
            projected_util=projected,
            cost_per_kop_before=self.cost_per_kop(n, snapshot),
            cost_per_kop_after=self.cost_per_kop(n - 1, snapshot),
        )

    def _record(self, now, action, node_id, **extra) -> None:
        self._last_change_t = now
        self._streak_out = 0
        self._streak_in = 0
        decision = {
            "t": float(now),
            "action": action,
            "node": int(node_id),
            **{k: float(v) for k, v in extra.items()},
        }
        self.decisions.append(decision)

    def summary(self) -> Dict[str, Any]:
        """Decision log + tick count for run reports (JSON-safe)."""
        return {
            "ticks": int(self.ticks),
            "decisions": [
                {k: d[k] for k in sorted(d)} for d in self.decisions
            ],
        }
