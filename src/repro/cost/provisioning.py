"""Cost-efficient storage provisioning (paper §V, direction 2).

The paper's second future-work direction: "provide a cost-efficient storage
provisioning in the cloud under consistency, performance and failures
constraints ... the quantity of additional storage nodes that reduce the
bill is computed."

:class:`ProvisioningAdvisor` answers that question analytically, using the
same building blocks the runtime engines use:

- **performance**: an M/M/c-style capacity check -- each node's read and
  mutation stages must absorb their per-node share of the offered load with
  bounded utilization;
- **consistency**: the DC-aware stale model must admit some read level
  within the application's staleness tolerance at the offered write rate;
- **failures**: the deployment must keep that read level available with
  ``f`` arbitrary nodes down (RF and per-DC placement margins);
- **cost**: the monthly bill (instances + provisioned storage) of every
  feasible candidate, cheapest first.

The sweep is over node counts per DC and replication factors; it returns
every evaluated candidate so callers can inspect the frontier, not just the
argmin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.cluster.node import ServiceModel
from repro.cost.pricing import PriceBook
from repro.stale.dcmodel import DeploymentInfo, per_key_stale_dc

__all__ = ["WorkloadEnvelope", "Candidate", "ProvisioningAdvisor"]

#: Per-DC replica layouts :meth:`ProvisioningAdvisor.evaluate` tries.
RF_LAYOUTS = ((2, 1), (3, 2), (3, 3))


@dataclass(frozen=True)
class WorkloadEnvelope:
    """The offered load and requirements a deployment must satisfy.

    Attributes
    ----------
    read_rate / write_rate:
        Aggregate offered rates (ops/sec).
    hot_key_write_rate:
        Peak per-key write rate (the staleness driver; take it from a
        monitor's key profile or size it as ``write_rate x hot share``).
    data_size_bytes:
        Logical data size (pre-replication).
    stale_tolerance:
        Maximum acceptable stale-read rate.
    max_utilization:
        Load headroom per service stage (0.7 = provision at 70%).
    failures_tolerated:
        ``f`` arbitrary node crashes the deployment must absorb while still
        serving the chosen read level.
    """

    read_rate: float
    write_rate: float
    hot_key_write_rate: float
    data_size_bytes: int
    stale_tolerance: float = 0.05
    max_utilization: float = 0.7
    failures_tolerated: int = 1

    def __post_init__(self) -> None:
        if self.read_rate < 0 or self.write_rate < 0:
            raise ConfigError("rates must be >= 0")
        if not (0.0 < self.max_utilization <= 1.0):
            raise ConfigError(
                f"max_utilization in (0, 1], got {self.max_utilization}"
            )
        if self.failures_tolerated < 0:
            raise ConfigError("failures_tolerated must be >= 0")


@dataclass(frozen=True)
class Candidate:
    """One evaluated deployment option."""

    nodes_per_dc: Tuple[int, ...]
    rf_per_dc: Tuple[int, ...]
    read_level: int
    est_stale_rate: float
    monthly_cost: float
    feasible: bool
    reason: str = ""

    @property
    def n_nodes(self) -> int:
        """Total node count."""
        return sum(self.nodes_per_dc)


class ProvisioningAdvisor:
    """Sweeps deployments and prices the feasible ones.

    Parameters
    ----------
    prices:
        The cloud price book.
    dc_delays:
        Mean one-way delay matrix between the candidate datacenters (the
        consistency constraint is WAN-driven).
    service:
        Node service-time model (capacity per stage derives from it).
    servers_per_node / mutation_servers_per_node:
        Stage parallelism of the candidate node type.
    """

    def __init__(
        self,
        prices: PriceBook,
        dc_delays: Sequence[Sequence[float]],
        service: Optional[ServiceModel] = None,
        servers_per_node: int = 4,
        mutation_servers_per_node: Optional[int] = None,
    ):
        self.prices = prices
        self.dc_delays = [list(row) for row in dc_delays]
        self.n_dcs = len(self.dc_delays)
        if any(len(row) != self.n_dcs for row in self.dc_delays):
            raise ConfigError("dc_delays must be square")
        self.service = service or ServiceModel()
        self.read_servers = int(servers_per_node)
        self.write_servers = int(
            mutation_servers_per_node
            if mutation_servers_per_node is not None
            else servers_per_node
        )

    # -- constraint checks ---------------------------------------------------------

    def stage_utilization(
        self, env: WorkloadEnvelope, n_nodes: int, rf: int, read_level: int
    ) -> float:
        """Worst-stage utilization of ``n_nodes`` under the envelope's load.

        The M/M/c-style capacity fraction of the busier of the read and
        mutation stages (1.0 = at capacity). Public because the elastic
        autoscaler projects counterfactual cluster sizes with exactly this
        check -- the feasibility half of the provisioning sweep.
        """
        read_work = env.read_rate * read_level / n_nodes
        write_work = env.write_rate * rf / n_nodes
        read_cap = self.read_servers / max(self.service.mean_read(), 1e-9)
        write_cap = self.write_servers / max(self.service.mean_write(), 1e-9)
        return max(read_work / max(read_cap, 1e-12), write_work / max(write_cap, 1e-12))

    def _capacity_ok(
        self, env: WorkloadEnvelope, n_nodes: int, rf: int, read_level: int
    ) -> bool:
        return (
            self.stage_utilization(env, n_nodes, rf, read_level)
            <= env.max_utilization
        )

    def _consistency_level(
        self, env: WorkloadEnvelope, nodes: Sequence[int], rf: Sequence[int]
    ) -> Optional[Tuple[int, float]]:
        info = DeploymentInfo(
            coordinator_share=[n / sum(nodes) for n in nodes],
            rf_per_dc=list(rf),
            delay=self.dc_delays,
            write_service=self.service.mean_write(),
            read_service=self.service.mean_read(),
        )
        for r in range(1, sum(rf) + 1):
            est = per_key_stale_dc(info, env.hot_key_write_rate, r)
            if est <= env.stale_tolerance:
                return r, est
        return None

    def _survives_failures(
        self, env: WorkloadEnvelope, rf: Sequence[int], read_level: int
    ) -> bool:
        # f arbitrary crashes may all hit replicas of one key; the read
        # level must still find enough live replicas.
        return sum(rf) - env.failures_tolerated >= read_level

    def monthly_cost(self, env: WorkloadEnvelope, n_nodes: int, rf_total: int) -> float:
        """Monthly bill (instances + storage + I/O) of a candidate size.

        Public counterpart of the sweep's pricing step; the autoscaler uses
        it to annotate scale decisions with the projected saving/cost.
        """
        hours = 30.0 * 24.0
        instances = n_nodes * hours * self.prices.instance_hour
        storage_gb = env.data_size_bytes * rf_total / 1e9
        storage = storage_gb * self.prices.storage_gb_month
        # steady-state I/O: every op costs replica requests
        io_per_month = (
            (env.read_rate + env.write_rate * rf_total) * 30 * 24 * 3600
        )
        storage += io_per_month / 1e6 * self.prices.storage_io_per_million
        return instances + storage

    # -- the sweep --------------------------------------------------------------------

    def evaluate(
        self,
        env: WorkloadEnvelope,
        nodes_range: Sequence[int] = (6, 9, 12, 18, 24, 36),
    ) -> List[Candidate]:
        """Evaluate every (cluster size, RF layout) candidate, cheapest first.

        The layouts are :data:`RF_LAYOUTS`; one whose length is not the
        datacenter count is skipped.
        """
        out: List[Candidate] = []
        for total in nodes_range:
            base = total // self.n_dcs
            nodes = [base] * self.n_dcs
            nodes[0] += total - base * self.n_dcs
            for rf in RF_LAYOUTS:
                if len(rf) != self.n_dcs:
                    continue
                if any(r > n for r, n in zip(rf, nodes)):
                    continue
                picked = self._consistency_level(env, nodes, rf)
                if picked is None:
                    out.append(
                        Candidate(
                            tuple(nodes), tuple(rf), 0, 1.0,
                            self.monthly_cost(env, total, sum(rf)),
                            False, "no level meets staleness tolerance",
                        )
                    )
                    continue
                level, est = picked
                # failures may force reading one level higher; require the
                # chosen level to survive
                if not self._survives_failures(env, rf, level):
                    out.append(
                        Candidate(
                            tuple(nodes), tuple(rf), level, est,
                            self.monthly_cost(env, total, sum(rf)),
                            False, "cannot tolerate failures at this level",
                        )
                    )
                    continue
                if not self._capacity_ok(env, total, sum(rf), level):
                    out.append(
                        Candidate(
                            tuple(nodes), tuple(rf), level, est,
                            self.monthly_cost(env, total, sum(rf)),
                            False, "insufficient service capacity",
                        )
                    )
                    continue
                out.append(
                    Candidate(
                        tuple(nodes), tuple(rf), level, est,
                        self.monthly_cost(env, total, sum(rf)), True,
                    )
                )
        out.sort(key=lambda c: (not c.feasible, c.monthly_cost))
        return out

    def recommend(self, env: WorkloadEnvelope, **kwargs) -> Optional[Candidate]:
        """Cheapest feasible candidate (``None`` if nothing qualifies)."""
        for candidate in self.evaluate(env, **kwargs):
            if candidate.feasible:
                return candidate
        return None
