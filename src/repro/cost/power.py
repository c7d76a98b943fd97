"""Power/energy accounting per consistency level (paper §V, direction 1).

The paper's first future-work direction: "investigate power consumption
behavior of different consistency approaches ... analyzes power consumption
and resources usage of the whole storage system considering different
consistency levels".

The model is the standard linear server-power model:

    P(node) = IDLE_WATTS + (PEAK_WATTS - IDLE_WATTS) * utilization

Energy over a run integrates this: ``IDLE_WATTS x wall time`` (servers burn
idle power regardless) plus ``(peak - idle) x busy server-seconds / servers``
from the node's read and mutation stages. Stronger consistency levels do
more replica work per operation *and* run longer for a fixed op count --
both terms grow, which is precisely the effect the paper wants quantified.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PowerModel", "EnergyReport"]

#: Per-node power at 0% and 100% utilization, in the range of the
#: 2012-era Grid'5000 nodes the paper planned to measure.
IDLE_WATTS = 95.0
PEAK_WATTS = 170.0


@dataclass(frozen=True)
class EnergyReport:
    """Energy consumed by a deployment over a metering interval."""

    idle_joules: float
    dynamic_joules: float
    duration: float
    ops: int

    @property
    def total_joules(self) -> float:
        """Idle + dynamic energy."""
        return self.idle_joules + self.dynamic_joules

    @property
    def joules_per_kop(self) -> float:
        """Energy per thousand operations (the efficiency number)."""
        return self.total_joules / self.ops * 1000.0 if self.ops else 0.0

    @property
    def mean_watts(self) -> float:
        """Average cluster power draw over the interval."""
        return self.total_joules / self.duration if self.duration > 0 else 0.0


class PowerModel:
    """Linear utilization-based power meter for a deployment.

    Parameters
    ----------
    store:
        The deployment to meter.
    """

    def __init__(self, store):
        self.store = store
        self.arm()

    def _busy_seconds(self) -> float:
        total = 0.0
        for node in self.store.nodes:
            total += node.resource.busy_seconds() / node.resource.servers
            total += (
                node.mutation_resource.busy_seconds()
                / node.mutation_resource.servers
            )
        return total

    def arm(self) -> None:
        """Restart the metering interval at the current clock."""
        self._t0 = self.store.transport.now
        self._busy0 = self._busy_seconds()
        self._ops0 = self.store.ops_completed()

    def report(self) -> EnergyReport:
        """Energy consumed since :meth:`arm` (or construction)."""
        duration = max(self.store.transport.now - self._t0, 0.0)
        n_nodes = self.store.topology.n_nodes
        idle = IDLE_WATTS * n_nodes * duration
        # busy_seconds is normalized per stage to "fraction-of-node busy";
        # each node has two stages, each contributing up to half the node's
        # dynamic range.
        busy = max(self._busy_seconds() - self._busy0, 0.0)
        dynamic = (PEAK_WATTS - IDLE_WATTS) * busy / 2.0
        return EnergyReport(
            idle_joules=idle,
            dynamic_joules=dynamic,
            duration=duration,
            ops=self.store.ops_completed() - self._ops0,
        )
