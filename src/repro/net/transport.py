"""Message transport: delay sampling, delivery, traffic accounting, faults.

:class:`Network` is the single fabric every node and coordinator sends
through. It does three jobs:

1. **delivery** -- sample a one-way delay from the topology's latency model
   for the link class and schedule the receive callback on the engine;
2. **accounting** -- count messages and bytes per link class into a
   :class:`TrafficMatrix`; the billing model prices exactly this matrix
   (inter-AZ / inter-region bytes are the paper's "network cost" bill part);
3. **fault injection** -- datacenter partitions (messages silently dropped,
   as on a real WAN cut) and additive delay (congestion episodes).
"""

from __future__ import annotations

from heapq import heappush
from itertools import repeat
from math import exp
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import spawn_rng
from repro.net.latency import LogNormalLatency
from repro.net.topology import LinkClass, Topology

__all__ = ["TrafficMatrix", "Network"]


#: Stable small-int code per link class (list index into the hot counters).
_CLASS_LIST = list(LinkClass)
_CLASS_CODE: Dict[LinkClass, int] = {cls: i for i, cls in enumerate(_CLASS_LIST)}
_LOCAL = LinkClass.LOCAL

#: standard normals a network fetches from its stream per refill (the
#: node-jitter block size: enough to amortize the numpy call)
_NORMAL_BLOCK = 64

#: (link class, int code, DC pair, model, floor, mu, sigma) per (src, dst);
#: ``sigma`` is ``None`` unless the model is exactly a LogNormalLatency
_Route = Tuple[LinkClass, int, Tuple[int, int], Any, float, float, Optional[float]]


class TrafficMatrix:
    """Per-link-class message and byte counters.

    The unit of account for the network part of the cloud bill. Counters are
    cumulative; :meth:`snapshot` + :meth:`delta` support per-interval billing.

    Internally the counters are lists indexed by a small int code:
    ``Enum.__hash__`` is a Python-level call, and two enum-keyed dict
    updates per message were among the hottest lines of a full store run.
    :meth:`Network.send` bumps the two lists in place with the code its
    route memo carries. The public ``messages`` / ``bytes`` mappings are
    built on access -- reporting and billing read them a handful of times
    per run.
    """

    __slots__ = ("_messages", "_bytes")

    def __init__(self) -> None:
        self._messages: List[int] = [0] * len(_CLASS_LIST)
        self._bytes: List[int] = [0] * len(_CLASS_LIST)

    @property
    def messages(self) -> Dict[LinkClass, int]:
        """Message count per link class (snapshot view)."""
        return {cls: self._messages[i] for i, cls in enumerate(_CLASS_LIST)}

    @property
    def bytes(self) -> Dict[LinkClass, int]:
        """Byte count per link class (snapshot view)."""
        return {cls: self._bytes[i] for i, cls in enumerate(_CLASS_LIST)}

    def record(self, cls: LinkClass, nbytes: int) -> None:
        """Count one message of ``nbytes`` on link class ``cls``."""
        code = _CLASS_CODE[cls]
        self._messages[code] += 1
        self._bytes[code] += nbytes

    def total_bytes(self) -> int:
        """All bytes across all link classes."""
        return sum(self._bytes)

    def billable_bytes(self) -> int:
        """Bytes on link classes clouds charge for (inter-AZ + inter-region)."""
        return (
            self._bytes[_CLASS_CODE[LinkClass.INTER_AZ]]
            + self._bytes[_CLASS_CODE[LinkClass.INTER_REGION]]
        )

    def snapshot(self) -> "TrafficMatrix":
        """Deep copy of the current counters."""
        snap = TrafficMatrix()
        snap._messages = list(self._messages)
        snap._bytes = list(self._bytes)
        return snap

    def delta(self, earlier: "TrafficMatrix") -> "TrafficMatrix":
        """Counters accumulated since ``earlier`` (a prior :meth:`snapshot`)."""
        d = TrafficMatrix()
        d._messages = [a - b for a, b in zip(self._messages, earlier._messages)]
        d._bytes = [a - b for a, b in zip(self._bytes, earlier._bytes)]
        return d

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{cls.value}={self._bytes[i]}B/{self._messages[i]}msg"
            for i, cls in enumerate(_CLASS_LIST)
            if self._messages[i]
        )
        return f"TrafficMatrix({parts or 'empty'})"


class Network:
    """The message fabric between nodes: the one link model of both engines.

    Parameters
    ----------
    engine:
        The event engine delivered messages are pushed onto: anything with
        ``now``, ``_seq`` and a ``_heap`` of ``(time, seq, fn, args)``
        entries -- the simulator, or the asyncio transport, which calls
        :meth:`send` with ``deliver=None`` and queues the frame itself.
    topology:
        Node placement and latency models.
    rng:
        Seed or generator for delay sampling (deterministic by default).

    Notes
    -----
    Delivery is fire-and-forget: :meth:`send` posts ``deliver(*args)`` on
    the engine after the sampled delay, inlining the simulator's ``post_at``
    heap push (the heap-entry invariant in ``simcore/simulator.py``: one
    frame fewer per message, 2.8 % of store throughput); no handle: a
    message in flight cannot be recalled. Reliability is modelled at
    this layer only through partitions; omission failures of individual
    nodes are modelled by the cluster layer marking nodes down.

    ``rng`` is block-served (ARCHITECTURE.md, "block-served streams"): an
    exactly-:class:`LogNormalLatency` link's delay is ``model.sample(rng)``
    bit for bit from one block of normals; other models draw via ``sample``.
    """

    def __init__(
        self,
        engine: Any,
        topology: Topology,
        rng: "np.random.Generator | int | None" = None,
    ):
        self.engine = engine
        self.topology = topology
        self.rng = spawn_rng(rng)
        self.traffic = TrafficMatrix()
        self.dropped: int = 0
        self._partitioned: Set[Tuple[int, int]] = set()  # (dc_a, dc_b) ordered pairs
        self._extra_delay: float = 0.0
        # Route table, ``[src][dst]``: link_class and the enum-keyed dict
        # lookups resolve once per node pair, not per message. Rebuilt
        # empty when the topology gains nodes (:meth:`clear_topology_cache`).
        n = topology.n_nodes
        self._routes: List[List[Any]] = list(map(list, repeat([None] * n, n)))
        #: the stream's next standard normals, reversed: ``pop()`` serves
        #: them in draw order
        self._normals: List[float] = []

    def _route(self, src: int, dst: int) -> _Route:
        """Resolve and memoize a node pair (the miss path of :meth:`send`)."""
        cls = self.topology.link_class(src, dst)
        dcs = (self.topology.dc_of(src), self.topology.dc_of(dst))
        model = self.topology.latency_models[cls]
        # ``type() is``: a subclass may override ``sample``.
        lognormal = type(model) is LogNormalLatency
        shape = (model.floor, model.mu, model.sigma) if lognormal else (0.0, 0.0, None)
        self._routes[src][dst] = route = (cls, _CLASS_CODE[cls], dcs, model) + shape
        return route

    def _refill(self) -> List[float]:
        """Fetch the next block of normals (the miss path of a lognormal draw)."""
        normals = self._normals
        normals.extend(self.rng.standard_normal(_NORMAL_BLOCK)[::-1].tolist())
        return normals

    def clear_topology_cache(self) -> None:
        """Drop memoized routes after the topology changed (elastic growth)."""
        n = self.topology.n_nodes
        self._routes = list(map(list, repeat([None] * n, n)))

    # -- fault injection --------------------------------------------------------

    def partition_dcs(self, dc_a: int, dc_b: int) -> None:
        """Cut both directions between two datacenters (messages are dropped)."""
        if dc_a == dc_b:
            raise ConfigError("cannot partition a datacenter from itself")
        self._partitioned.add((dc_a, dc_b))
        self._partitioned.add((dc_b, dc_a))

    def heal_partition(self, dc_a: int, dc_b: int) -> None:
        """Restore connectivity between two datacenters."""
        self._partitioned.discard((dc_a, dc_b))
        self._partitioned.discard((dc_b, dc_a))

    def heal_all(self) -> None:
        """Remove every partition."""
        self._partitioned.clear()

    def set_extra_delay(self, delay: float) -> None:
        """Add a constant delay to every non-local message (congestion)."""
        if delay < 0:
            raise ConfigError(f"extra delay must be >= 0, got {delay}")
        self._extra_delay = float(delay)

    def dcs_partitioned(self, dc_a: int, dc_b: int) -> bool:
        """Whether traffic between two datacenters (indices) is being dropped."""
        return (dc_a, dc_b) in self._partitioned

    # -- data plane ---------------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        nbytes: int,
        deliver: Optional[Callable[..., Any]],
        *args: Any,
    ) -> Optional[float]:
        """Send ``nbytes`` from node ``src`` to node ``dst``.

        Returns the sampled one-way delay, or ``None`` if the message was
        dropped by a partition. ``deliver(*args)`` fires at ``now + delay``
        (``deliver=None``: billed and timed, nothing scheduled). Bytes are
        counted even for local messages (zero-priced link class).
        """
        route = self._routes[src][dst]
        if route is None:
            route = self._route(src, dst)
        cls, code, dcs, model, floor, mu, sigma = route
        local = cls is _LOCAL
        if not local and self._partitioned and dcs in self._partitioned:
            self.dropped += 1
            return None
        traffic = self.traffic
        traffic._messages[code] += 1
        traffic._bytes[code] += int(nbytes)
        if sigma is not None:
            delay = floor + exp(mu + sigma * (self._normals or self._refill()).pop())
        else:
            delay = model.sample(self.rng)
        if not local:
            delay += self._extra_delay
        if deliver is not None:
            engine = self.engine
            engine._seq = seq = engine._seq + 1
            heappush(engine._heap, (engine.now + delay, seq, deliver, args))
        return delay

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network(nodes={self.topology.n_nodes}, "
            f"traffic={self.traffic.total_bytes()}B, dropped={self.dropped})"
        )
