"""Failure injection: node crashes, recoveries and WAN partitions.

The injector posts failure scripts on the store's transport clock. It
goes through the store so recovery triggers hint replay, and through the
store's network so partitions drop messages -- exercising exactly the
availability/staleness behaviour the integration tests assert on.

Every executed failure is recorded as a structured
:class:`~repro.obs.events.ObsEvent` in :attr:`FailureInjector.events` and
fired on the store's ``on_fault`` channel, so the observability layer (and
any other observer) sees crashes/partitions as typed records rather than
parsing strings.
"""

from __future__ import annotations

from typing import List

from repro.common.errors import ConfigError
from repro.obs.events import ObsEvent

__all__ = ["FailureInjector"]


class FailureInjector:
    """Scriptable failures against a :class:`~repro.cluster.store.ReplicatedStore`."""

    def __init__(self, store) -> None:
        self.store = store
        #: structured record of every executed failure action, in order.
        self.events: List[ObsEvent] = []

    def _record(self, kind: str, **data) -> None:
        event = ObsEvent(self.store.transport.now, kind, data)
        self.events.append(event)
        self.store.fire("on_fault", event)

    # -- node failures ---------------------------------------------------------

    def crash_node(self, node_id: int, at: float, duration: float | None = None) -> None:
        """Crash ``node_id`` at time ``at``; recover after ``duration`` if given."""
        if at < self.store.transport.now:
            raise ConfigError(f"cannot schedule a crash in the past (at={at})")
        if duration is not None and duration <= 0:
            raise ConfigError(f"duration must be positive, got {duration}")
        self.store.transport.post_at(at, self._do_crash, node_id)
        if duration is not None:
            self.store.transport.post_at(at + duration, self._do_recover, node_id)

    def crash_storm(
        self,
        node_ids,
        start: float,
        interval: float,
        downtime: float,
    ) -> None:
        """Crash the given nodes one after another, ``interval`` apart.

        Each node stays down for ``downtime`` seconds before recovering (with
        hint replay), so the storm rolls through the cluster rather than
        taking it out wholesale -- the shape the scenario registry's
        ``node-failure-storm`` sweeps use.
        """
        if interval <= 0 or downtime <= 0:
            raise ConfigError("interval and downtime must be positive")
        t = start
        for node_id in node_ids:
            self.crash_node(node_id, at=t, duration=downtime)
            t += interval

    def _do_crash(self, node_id: int) -> None:
        # Route through the store so its observers (e.g. the transaction
        # subsystem wiping volatile 2PC state) hear the crash.
        self.store.on_node_crash(node_id)
        self._record("node-crash", node=node_id, dc=self.store.topology.dc_of(node_id))

    def _do_recover(self, node_id: int) -> None:
        self.store.on_node_recover(node_id)
        self._record(
            "node-recover", node=node_id, dc=self.store.topology.dc_of(node_id)
        )

    # -- partitions ---------------------------------------------------------------

    def partition(
        self, dc_a: int, dc_b: int, at: float, duration: float | None = None
    ) -> None:
        """Cut DCs ``dc_a``/``dc_b`` at ``at``; heal after ``duration`` if given."""
        if at < self.store.transport.now:
            raise ConfigError(f"cannot schedule a partition in the past (at={at})")
        if duration is not None and duration <= 0:
            raise ConfigError(f"duration must be positive, got {duration}")
        self.store.transport.post_at(at, self._do_partition, dc_a, dc_b)
        if duration is not None:
            self.store.transport.post_at(at + duration, self._do_heal, dc_a, dc_b)

    def _do_partition(self, dc_a: int, dc_b: int) -> None:
        self.store.network.partition_dcs(dc_a, dc_b)
        self._record("partition", dc_a=dc_a, dc_b=dc_b)

    def _do_heal(self, dc_a: int, dc_b: int) -> None:
        self.store.network.heal_partition(dc_a, dc_b)
        self._record("heal", dc_a=dc_a, dc_b=dc_b)
