"""Storage nodes: local state, service-time model, failure state.

A node is a key->version map behind a FIFO service resource
(:class:`~repro.simcore.resources.Resource`). All request latency that is
*not* network comes from here: a base service time plus exponential jitter,
plus whatever queueing delay builds up under load. That queueing delay is
the mechanism by which stronger consistency levels (more replica work per
operation) depress throughput in the closed-loop experiments -- the effect
the paper's §IV-A measures.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import spawn_rng
from repro.cluster.versions import Version
from repro.runtime.interface import Transport
from repro.simcore.resources import Resource

__all__ = ["ServiceModel", "StorageNode"]

#: unit-exponential draws a node fetches from its stream per refill (enough
#: to amortize the numpy call; small, because every node keeps a block)
_JITTER_BLOCK = 64


class ServiceModel:
    """Per-operation service-time distribution: ``base + Exp(jitter_mean)``.

    The deterministic base models the per-request code path; the exponential
    part models everything that varies (page-cache misses, GC pauses,
    compaction interference). Defaults are in the ballpark of a 2012-era
    Cassandra node serving small YCSB rows from memory/page cache.
    """

    __slots__ = ("read_base", "read_jitter", "write_base", "write_jitter")

    def __init__(
        self,
        read_base: float = 0.0004,
        read_jitter: float = 0.0003,
        write_base: float = 0.0003,
        write_jitter: float = 0.0002,
    ):
        for name, v in (
            ("read_base", read_base),
            ("read_jitter", read_jitter),
            ("write_base", write_base),
            ("write_jitter", write_jitter),
        ):
            if v < 0:
                raise ConfigError(f"{name} must be >= 0, got {v}")
        self.read_base = float(read_base)
        self.read_jitter = float(read_jitter)
        self.write_base = float(write_base)
        self.write_jitter = float(write_jitter)

    def sample_read(self, rng: np.random.Generator) -> float:
        """Service time of one local read."""
        j = rng.exponential(self.read_jitter) if self.read_jitter > 0 else 0.0
        return self.read_base + j

    def sample_write(self, rng: np.random.Generator) -> float:
        """Service time of one local write (mutation apply)."""
        j = rng.exponential(self.write_jitter) if self.write_jitter > 0 else 0.0
        return self.write_base + j

    def mean_read(self) -> float:
        """Expected read service time (for analytical estimators)."""
        return self.read_base + self.read_jitter

    def mean_write(self) -> float:
        """Expected write service time."""
        return self.write_base + self.write_jitter


class StorageNode:
    """One storage server: local versions + service queue + up/down state.

    Parameters
    ----------
    transport:
        The deployment's transport; the service queues push their
        completions onto its engine.
    node_id:
        Dense id matching the topology's placement.
    service:
        Service-time model shared or per-node.
    servers:
        Service parallelism (request-handler threads).
    rng:
        Seed or generator for service-time jitter.
    """

    __slots__ = (
        "node_id",
        "service",
        "resource",
        "mutation_resource",
        "rng",
        "data",
        "up",
        "retired",
        "reads_served",
        "writes_applied",
        "_unit_jitter",
    )

    def __init__(
        self,
        transport: Transport,
        node_id: int,
        service: Optional[ServiceModel] = None,
        servers: int = 4,
        mutation_servers: Optional[int] = None,
        rng: "np.random.Generator | int | None" = None,
    ):
        self.node_id = int(node_id)
        self.service = service or ServiceModel()
        # Separate read and mutation stages, as in Cassandra's SEDA design:
        # under write-heavy overload the mutation stage backs up (replica
        # applies lag) while reads keep being served -- which is exactly how
        # heavy load amplifies staleness on the real system.
        engine = transport.engine
        self.resource = Resource(engine, servers=servers, name=f"node{node_id}.read")
        m = mutation_servers if mutation_servers is not None else servers
        self.mutation_resource = Resource(engine, servers=m, name=f"node{node_id}.mut")
        self.rng = spawn_rng(rng)
        #: the stream's next unit exponentials, reversed: ``pop()`` serves
        #: them in draw order
        self._unit_jitter: List[float] = []
        self.data: Dict[str, Version] = {}
        self.up = True
        self.retired = False
        self.reads_served = 0
        self.writes_applied = 0

    # -- failure state -------------------------------------------------------

    def crash(self) -> None:
        """Mark the node down; in-flight work finishes, new work is dropped."""
        self.up = False

    def recover(self) -> None:
        """Bring the node back (state intact -- a restart, not a rebuild)."""
        self.up = True

    def retire(self) -> None:
        """Permanently drain the node after a decommission hand-off.

        Unlike :meth:`crash`, retirement is final: the node left the ring,
        its data has been streamed away, and recovery must not revive it.
        """
        self.up = False
        self.retired = True

    # -- request handling -------------------------------------------------------

    def _refill_jitter(self) -> List[float]:
        """Fetch the next block of unit exponentials (the handlers' miss path).

        A handler scales the next one by its jitter: ``ServiceModel``'s draw
        bit for bit (ARCHITECTURE.md, "block-served streams")."""
        units = self._unit_jitter
        units.extend(self.rng.standard_exponential(_JITTER_BLOCK)[::-1].tolist())
        return units

    def handle_write(
        self,
        key: str,
        version: Version,
        done: Callable[..., Any],
        *ctx: Any,
    ) -> None:
        """Apply a replica mutation, then call ``done(node_id, key, version, *ctx)``.

        ``version`` is the incoming one; ``ctx`` passes through untouched, so
        a coordinator hands over a bound handler and its op, not a closure.
        Reconciliation is last-write-wins: an older incoming version never
        overwrites a newer local one (it still acknowledges -- the write *is*
        durable, it just lost the race, exactly like Cassandra).
        """
        if not self.up:
            return
        model = self.service
        service, jitter = model.write_base, model.write_jitter
        if jitter > 0:  # like the model: no jitter, no draw
            service += jitter * (self._unit_jitter or self._refill_jitter()).pop()
        self.mutation_resource.submit(
            service, self._apply_write, key, version, done, *ctx
        )

    def _apply_write(
        self, key: str, version: Version, done: Callable[..., Any], *ctx: Any
    ) -> None:
        if not self.up:
            return
        current = self.data.get(key)
        if current is None or version.newer_than(current):
            self.data[key] = version
        self.writes_applied += 1
        done(self.node_id, key, version, *ctx)

    def handle_read(self, key: str, done: Callable[..., Any], *ctx: Any) -> None:
        """Serve a replica read, then call ``done(node_id, key, version, *ctx)``.

        ``version`` is the node's newest *at serve time* (after queueing;
        ``None`` if missing), matching a real replica that applies a racing
        mutation just before serving the read. ``ctx`` is as in
        :meth:`handle_write`.
        """
        if not self.up:
            return
        model = self.service
        service, jitter = model.read_base, model.read_jitter
        if jitter > 0:  # like the model: no jitter, no draw
            service += jitter * (self._unit_jitter or self._refill_jitter()).pop()
        self.resource.submit(service, self._serve_read, key, done, *ctx)

    def _serve_read(self, key: str, done: Callable[..., Any], *ctx: Any) -> None:
        if not self.up:
            return
        self.reads_served += 1
        done(self.node_id, key, self.data.get(key), *ctx)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "up" if self.up else "DOWN"
        return (
            f"StorageNode(id={self.node_id}, {state}, keys={len(self.data)}, "
            f"reads={self.reads_served}, writes={self.writes_applied})"
        )
