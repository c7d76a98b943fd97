"""Expected per-operation cost by consistency level (Bismar's cost side).

Bismar must rank consistency levels by cost *before* running at them, from
observable state only. Following the paper ("a relative computation of the
expected cost"), the estimator prices one average operation at level
``(r, w)`` using:

- **instances**: cluster-seconds consumed per operation. With a closed-loop
  client population, Little's law gives the in-flight concurrency
  ``C = arrival_rate x current_latency``; at level ``cl`` the expected
  latency is the rank-``cl`` acknowledgement delay from the monitor's
  profile, so throughput ``= C / latency(cl)`` and instance dollars per op
  ``= n_nodes x $/s / throughput``. Constants cancel in the ranking; the
  *latency ratio across levels* is what drives it.
- **storage I/O**: a read at level ``r`` touches ``r`` replicas; every
  write touches all ``rf`` replicas (propagation is unconditional);
- **network**: bytes crossing billable links. The coordinator prefers
  local-datacenter replicas, so only contacts beyond the local replica
  count cross datacenter boundaries.

All three parts scale the way the paper's measured decomposition scales:
instance cost dominates and falls with weaker levels (shorter runs),
network cost falls with fewer cross-DC contacts, storage I/O falls with
fewer replica reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.common.errors import ConfigError
from repro.cluster.coordinator import ACK_SIZE, DIGEST_SIZE, REQUEST_OVERHEAD
from repro.cost.pricing import PriceBook
from repro.net.topology import LinkClass, Topology

__all__ = ["LevelCostEstimate", "CostEstimator"]

#: per-rank latency assumed before the monitor has an ack profile.
FALLBACK_RTT = 0.002


@dataclass(frozen=True)
class LevelCostEstimate:
    """Expected cost of one average operation at a given level pair."""

    read_level: int
    write_level: int
    instance_per_op: float
    storage_per_op: float
    network_per_op: float
    expected_latency: float

    @property
    def total_per_op(self) -> float:
        """Expected $ per operation."""
        return self.instance_per_op + self.storage_per_op + self.network_per_op


class CostEstimator:
    """Prices candidate consistency levels from monitor snapshots.

    Parameters
    ----------
    prices:
        Unit prices.
    topology:
        Deployment topology (for the billable-link structure).
    rf_total / local_replicas:
        Replication factor and the average number of replicas in a
        coordinator's own datacenter (e.g. RF=5 as {3, 2} over two DCs seen
        from a random coordinator ~ 2.6).
    value_size:
        Payload size (must match the store's).
    """

    def __init__(
        self,
        prices: PriceBook,
        topology: Topology,
        rf_total: int,
        local_replicas: float,
        value_size: int,
    ):
        if rf_total < 1:
            raise ConfigError(f"rf_total must be >= 1, got {rf_total}")
        if not (0.0 <= local_replicas <= rf_total):
            raise ConfigError(
                f"local_replicas must be in [0, rf], got {local_replicas}"
            )
        self.prices = prices
        self.topology = topology
        self.rf_total = int(rf_total)
        self.local_replicas = float(local_replicas)
        self.value_size = int(value_size)

    @classmethod
    def for_store(cls, store, prices: PriceBook) -> "CostEstimator":
        """Build an estimator matching a deployed store's parameters."""
        topo = store.topology
        rf = store.strategy.rf_total
        # Average local replica count seen from a uniformly random coordinator.
        by_dc = getattr(store.strategy, "rf_per_dc", None)
        if by_dc:
            weights = [topo.nodes_per_dc[dc] / topo.n_nodes for dc in range(len(topo.datacenters))]
            local = sum(
                weights[dc] * by_dc.get(dc, 0) for dc in range(len(topo.datacenters))
            )
        else:
            local = rf / max(len(topo.datacenters), 1)
        return cls(
            prices=prices,
            topology=topo,
            rf_total=rf,
            local_replicas=local,
            value_size=store.default_value_size,
        )

    # -- the pieces ---------------------------------------------------------------

    def _latency_at(self, level: int, rank_means: Sequence[float]) -> float:
        if rank_means and level <= len(rank_means):
            v = rank_means[level - 1]
            if v > 0:
                return v
        return FALLBACK_RTT * level

    def _billable_rate(self) -> float:
        """$/GB of the deployment's cross-DC link class."""
        regions = {dc.region for dc in self.topology.datacenters}
        if len(self.topology.datacenters) < 2:
            return 0.0
        if len(regions) > 1:
            return self.prices.transfer_rate(LinkClass.INTER_REGION)
        return self.prices.transfer_rate(LinkClass.INTER_AZ)

    def _read_network_bytes(self, r: int) -> float:
        """Expected billable bytes of one read at level ``r``."""
        remote = max(0.0, r - self.local_replicas)
        if remote <= 0:
            return 0.0
        # Remote contacts carry a request out and a digest back; if the local
        # DC holds no replica at all, the data response itself crosses too.
        per_contact = REQUEST_OVERHEAD + DIGEST_SIZE
        extra_data = self.value_size if self.local_replicas < 1.0 else 0.0
        return remote * per_contact + extra_data

    def _write_network_bytes(self, w: int) -> float:
        """Expected billable bytes of one write (propagation is always full)."""
        remote = max(0.0, self.rf_total - self.local_replicas)
        return remote * (REQUEST_OVERHEAD + self.value_size + ACK_SIZE)

    # -- public API ------------------------------------------------------------------

    def estimate(
        self,
        snapshot,
        read_level: int,
        write_level: int,
        read_repair_chance: float = 0.0,
    ) -> LevelCostEstimate:
        """Expected per-op cost at ``(read_level, write_level)``.

        ``snapshot`` is a :class:`~repro.monitor.collector.MonitorSnapshot`;
        only its rates, latencies and ack profile are read.
        """
        r, w = int(read_level), int(write_level)
        if not (1 <= r <= self.rf_total and 1 <= w <= self.rf_total):
            raise ConfigError(f"levels ({r},{w}) outside 1..{self.rf_total}")

        rank_means = snapshot.ack_rank_means
        total_rate = snapshot.read_rate + snapshot.write_rate
        read_frac = snapshot.read_rate / total_rate if total_rate > 0 else 0.5

        lat_read = self._latency_at(r, rank_means)
        lat_write = self._latency_at(w, rank_means)
        expected_latency = read_frac * lat_read + (1 - read_frac) * lat_write

        # Little's law concurrency from *current* operation: constant across
        # candidate levels, so the ratio of per-op instance cost across
        # levels equals the latency ratio -- the relative computation the
        # paper describes.
        cur_latency = (
            read_frac * max(snapshot.read_latency, 1e-6)
            + (1 - read_frac) * max(snapshot.write_latency, 1e-6)
        )
        concurrency = max(total_rate * cur_latency, 1.0)
        throughput = concurrency / max(expected_latency, 1e-6)
        instance_per_op = (
            self.topology.n_nodes
            * self.prices.instance_rate_per_second()
            / throughput
        )

        # storage I/O requests per op
        repair_extra = read_repair_chance * (self.rf_total - r)
        io_per_read = r + repair_extra
        io_per_write = self.rf_total
        io_per_op = read_frac * io_per_read + (1 - read_frac) * io_per_write
        storage_per_op = io_per_op * self.prices.storage_io_per_million / 1e6

        # billable network bytes per op
        rate_gb = self._billable_rate()
        net_bytes = (
            read_frac * self._read_network_bytes(r)
            + (1 - read_frac) * self._write_network_bytes(w)
        )
        network_per_op = net_bytes / 1e9 * rate_gb

        return LevelCostEstimate(
            read_level=r,
            write_level=w,
            instance_per_op=instance_per_op,
            storage_per_op=storage_per_op,
            network_per_op=network_per_op,
            expected_latency=expected_latency,
        )

    def estimate_all(
        self, snapshot, write_level: int, read_repair_chance: float = 0.0
    ) -> List[LevelCostEstimate]:
        """Estimates for every read level ``1..rf`` at a fixed write level."""
        return [
            self.estimate(snapshot, r, write_level, read_repair_chance)
            for r in range(1, self.rf_total + 1)
        ]
