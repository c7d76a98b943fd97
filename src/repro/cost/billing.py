"""Measured bills: metering a running deployment.

A :class:`Biller` snapshots a store's meters when armed and produces a
:class:`Bill` -- the paper's three-part decomposition -- for the interval
since. All inputs are *measured* (simulated wall time, replica I/O counts,
the network traffic matrix), so the bill is exactly what the metered
activity would have cost under the price book.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.cost.pricing import PriceBook
from repro.net.topology import LinkClass
from repro.net.transport import TrafficMatrix

__all__ = ["Bill", "Biller"]


def fmt_usd(x: float) -> str:
    """Dollar amount with sensible precision for small per-run bills."""
    if abs(x) >= 100:
        return f"${x:,.2f}"
    if abs(x) >= 1:
        return f"${x:.3f}"
    return f"${x:.5f}"


@dataclass(frozen=True)
class Bill:
    """One interval's charge, decomposed the way the paper decomposes it."""

    instance_cost: float
    storage_cost: float
    network_cost: float
    duration: float
    ops: int

    @property
    def total(self) -> float:
        """The whole bill."""
        return self.instance_cost + self.storage_cost + self.network_cost

    @property
    def cost_per_kop(self) -> float:
        """$ per thousand operations (the workload-normalized cost)."""
        return self.total / self.ops * 1000.0 if self.ops else 0.0

    def breakdown(self) -> Dict[str, float]:
        """Name -> dollars, for table rendering."""
        return {
            "instances": self.instance_cost,
            "storage": self.storage_cost,
            "network": self.network_cost,
            "total": self.total,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Bill(total={fmt_usd(self.total)}: inst={fmt_usd(self.instance_cost)}, "
            f"stor={fmt_usd(self.storage_cost)}, net={fmt_usd(self.network_cost)})"
        )


class Biller:
    """Meters a store and prices intervals of its activity.

    Parameters
    ----------
    store:
        The deployment to meter.
    prices:
        Unit prices.
    data_size_bytes:
        Logical data size (records x row size); the provisioned-storage part
        of the bill accrues on ``data_size x replication_factor``.
    """

    def __init__(self, store, prices: PriceBook, data_size_bytes: int):
        self.store = store
        self.prices = prices
        self.data_size_bytes = int(data_size_bytes)
        self._t0 = 0.0
        self._io0 = 0
        self._ops0 = 0
        self._traffic0: Optional[TrafficMatrix] = None
        self.arm()

    # -- metering ------------------------------------------------------------

    def _io_count(self) -> int:
        return sum(n.reads_served + n.writes_applied for n in self.store.nodes)

    def arm(self) -> None:
        """Start (or restart) the metering interval at the current clock."""
        self._t0 = self.store.transport.now
        self._io0 = self._io_count()
        self._ops0 = self.store.ops_completed()
        self._inst0 = self.store.instance_seconds()
        self._traffic0 = self.store.network.traffic.snapshot()

    def bill(self) -> Bill:
        """Price the interval since :meth:`arm`."""
        store, prices = self.store, self.prices
        duration = max(store.transport.now - self._t0, 0.0)
        # Billable capacity is integrated over the interval (instance-
        # seconds of live, non-retired nodes), so elastic scale-outs bill
        # from their bootstrap and scale-ins stop billing at retirement.
        # On a static cluster this is exactly n_nodes x duration.
        inst_seconds = max(store.instance_seconds() - self._inst0, 0.0)

        # -- instances ---------------------------------------------------------
        if prices.round_up_instance_hours:
            # 2013-era AWS granularity: each instance's own hours round up
            # individually, so elastic lifetimes are priced per span.
            t_end = store.transport.now
            instance_cost = 0.0
            for start, end in store.instance_spans():
                overlap = min(end if end is not None else t_end, t_end) - max(
                    start, self._t0
                )
                if overlap > 0:
                    instance_cost += (
                        math.ceil(overlap / 3600.0) * prices.instance_hour
                    )
        else:
            instance_cost = inst_seconds * prices.instance_rate_per_second()

        # -- storage -----------------------------------------------------------
        replicated_gb = (
            self.data_size_bytes * store.strategy.rf_total / 1e9
        )
        months = duration / (30.0 * 24 * 3600.0)
        io_requests = self._io_count() - self._io0
        storage_cost = (
            replicated_gb * months * prices.storage_gb_month
            + io_requests / 1e6 * prices.storage_io_per_million
        )

        # -- network -----------------------------------------------------------
        traffic = store.network.traffic.delta(self._traffic0)
        network_cost = 0.0
        for cls in LinkClass:
            gb = traffic.bytes[cls] / 1e9
            network_cost += gb * prices.transfer_rate(cls)

        return Bill(
            instance_cost=instance_cost,
            storage_cost=storage_cost,
            network_cost=network_cost,
            duration=duration,
            ops=store.ops_completed() - self._ops0,
        )
