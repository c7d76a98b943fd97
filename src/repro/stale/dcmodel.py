"""Datacenter-aware stale-read model.

The rank-window model in :mod:`repro.stale.model` assumes the read contacts
a *uniformly random* replica subset. Real coordinators (and this
simulator's) are snitch-ordered: they prefer replicas in their own
datacenter. That correlates the contacted replicas' lags -- all local
replicas of a remotely-committed write lag by the same WAN delay -- so the
uniform-subset model underestimates staleness for multi-replica reads.

This model keeps the per-datacenter structure explicit. The paper's
monitoring module "collects ... network latencies"; here those latencies
come in as the mean one-way delay matrix between datacenters.

For a read issued from DC ``d`` at level ``r`` against a key written from
DC ``d'`` (both weighted by where coordinators live):

- the write reaches replicas in DC ``e`` at ``W[d', e] = delay(d', e) +
  write_service`` after its start (the strict Figure-1 bar);
- the read arrives at a replica in DC ``e`` at ``delay(d, e) +
  read_service`` after *its* start, which eats into the staleness window;
- the contacted DCs are the local DC first, then remote DCs by proximity,
  honouring the per-DC replica counts;
- with ``tau ~ Exp(lambda_w)`` since the last write, the read is stale iff
  ``tau < min_e [ W[d', e] - arrival(d, e) ]`` over contacted DCs ``e``
  (replicas within one DC share the same window -- exactly the correlation
  the uniform model misses).

Hence ``P = sum_{d, d'} p_d p_{d'} (1 - exp(-lambda_w * V(d, d')))`` with
``V`` the positive part of that minimum.

:func:`forecast_stale` is the one place a monitor snapshot becomes a
stale-read forecast per read level: this model when the deployment is
known, the rank-window model of :mod:`repro.stale.model` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import math

from repro.common.errors import ConfigError
from repro.stale.model import params_from_snapshot, system_stale_rate

__all__ = [
    "COLD_START_WINDOW", "DeploymentInfo", "forecast_stale",
    "system_stale_rate_dc",
]

#: residual window assumed per replica before any write has propagated.
COLD_START_WINDOW = 0.05


@dataclass
class DeploymentInfo:
    """The deployment facts the DC-aware model needs.

    Attributes
    ----------
    coordinator_share:
        Probability a random operation is coordinated from each DC
        (proportional to node counts when clients spread evenly).
    rf_per_dc:
        Replicas of each key per DC.
    delay:
        ``delay[a][b]``: mean one-way network delay from DC ``a`` to ``b``.
    write_service / read_service:
        Mean replica service times.
    """

    coordinator_share: List[float]
    rf_per_dc: List[int]
    delay: List[List[float]]
    write_service: float
    read_service: float

    def __post_init__(self) -> None:
        n = len(self.coordinator_share)
        if not (len(self.rf_per_dc) == n and len(self.delay) == n):
            raise ConfigError("DeploymentInfo fields must align on DC count")
        total = sum(self.coordinator_share)
        if total <= 0:
            raise ConfigError("coordinator shares must sum to a positive value")
        self.coordinator_share = [s / total for s in self.coordinator_share]

    @property
    def n_dcs(self) -> int:
        """Number of datacenters."""
        return len(self.rf_per_dc)

    @property
    def rf_total(self) -> int:
        """Total replication factor."""
        return sum(self.rf_per_dc)

    @classmethod
    def from_store(cls, store) -> "DeploymentInfo":
        """Extract deployment facts from a running store.

        Uses the topology's latency-model means -- the same quantities a
        real monitoring module estimates by probing inter-node RTTs.
        """
        topo = store.topology
        n = len(topo.datacenters)
        shares = [topo.nodes_per_dc[d] / topo.n_nodes for d in range(n)]
        by_dc = getattr(store.strategy, "rf_per_dc", None)
        if by_dc:
            rf = [by_dc.get(d, 0) for d in range(n)]
        else:
            # SimpleStrategy spreads roughly proportionally to node counts.
            total = store.strategy.rf_total
            rf = [max(1, round(total * s)) for s in shares]
            while sum(rf) > total:
                rf[rf.index(max(rf))] -= 1
            while sum(rf) < total:
                rf[rf.index(min(rf))] += 1
        reps = [topo.nodes_in_dc(d)[0] for d in range(n)]
        delay = [
            [
                topo.latency_model(reps[a], reps[b]).mean() if a != b
                else topo.latency_models[_intra_class()].mean()
                for b in range(n)
            ]
            for a in range(n)
        ]
        svc = store.config.service
        return cls(
            coordinator_share=shares,
            rf_per_dc=rf,
            delay=delay,
            write_service=svc.mean_write(),
            read_service=svc.mean_read(),
        )


def _intra_class():
    from repro.net.topology import LinkClass

    return LinkClass.INTRA_DC


def _contacted_dcs(info: DeploymentInfo, reader_dc: int, read_level: int) -> List[int]:
    """DCs whose replicas a level-``r`` read from ``reader_dc`` contacts."""
    remaining = read_level
    order = sorted(
        range(info.n_dcs),
        key=lambda e: (e != reader_dc, info.delay[reader_dc][e]),
    )
    contacted: List[int] = []
    for e in order:
        take = min(remaining, info.rf_per_dc[e])
        if take > 0:
            contacted.append(e)
            remaining -= take
        if remaining == 0:
            break
    return contacted


def _window_terms(info: DeploymentInfo, read_level: int) -> List[Tuple[float, float]]:
    """``(p_d * p_d', V(d, d'))`` per DC pair at level ``r``, for every key."""
    if not (1 <= read_level <= info.rf_total):
        raise ConfigError(f"read_level {read_level} outside 1..{info.rf_total}")
    terms = []
    for d, p_read in enumerate(info.coordinator_share):
        if p_read <= 0:
            continue
        contacted = _contacted_dcs(info, d, read_level)
        for d2, p_write in enumerate(info.coordinator_share):
            if p_write <= 0:
                continue
            window = math.inf
            for e in contacted:
                apply_at = info.delay[d2][e] + info.write_service
                read_arrives = info.delay[d][e] + info.read_service
                window = min(window, max(apply_at - read_arrives, 0.0))
            terms.append((p_read * p_write, window))
    return terms


def system_stale_rate_dc(
    info: DeploymentInfo,
    write_rate: float,
    key_profile: Sequence[Tuple[float, float, int]],
    read_level: int,
) -> float:
    """Workload-wide DC-aware strict staleness (read-share-weighted)."""
    expm1 = math.expm1
    terms = None
    acc = 0.0
    for read_share, write_share, mult in key_profile:
        if read_share <= 0:
            continue
        rate = write_rate * write_share
        if rate < 0:
            raise ConfigError(f"write_rate must be >= 0, got {rate}")
        if terms is None:
            terms = _window_terms(info, read_level)
        if rate == 0.0:
            continue
        p = 0.0
        for pw, window in terms:
            p += pw * -expm1(-rate * window)
        acc += read_share * mult * min(p, 1.0)
    return min(acc, 1.0)


def forecast_stale(
    snapshot, rf: int, write_level: int, deployment: "DeploymentInfo | None" = None
) -> List[float]:
    """Strict stale-read estimate for each read level ``1..rf``.

    With a ``deployment`` the DC-aware model prices snitch-ordered reads.
    Without one the rank-window model runs on the snapshot's ack profile
    (``COLD_START_WINDOW`` per replica before any write propagated),
    padded with its largest window when fewer than ``rf`` ranks were
    observed (nodes down) and cut to ``rf`` when more were (acks from
    replicas a pending migration still writes to).
    """
    if deployment is not None:
        profile = snapshot.key_profile or [(1.0, 1.0, 1)]
        return [
            system_stale_rate_dc(deployment, snapshot.write_rate, profile, r)
            for r in range(1, rf + 1)
        ]
    params = params_from_snapshot(snapshot, write_level, rf, COLD_START_WINDOW)
    if params.rf != rf:
        windows = list(params.windows)
        params.windows = (windows + [max(windows)] * rf)[:rf]
        params.rf = rf
    return [system_stale_rate(params, r, write_level) for r in range(1, rf + 1)]
