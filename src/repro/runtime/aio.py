"""The asyncio localhost :class:`Transport`: real timers, a real wire.

``AsyncioTransport`` runs the *same* protocol classes the simulator runs
-- the TM, participant and coordinator state machines are imported once
and never forked -- but executes them on an asyncio event loop:

- **driver** -- the transport owns its event loop from construction;
  :meth:`~AsyncioTransport.run` runs it until :meth:`~AsyncioTransport.stop`
  or protocol time ``until`` (the wall guard), and an exception a callback
  raises stops the loop and propagates out of ``run``, as on the simulator;
- **clock** -- ``loop.time()``, rebased to 0 at construction and divided
  by ``time_scale``, so protocol-visible seconds match the scenario's
  configured timeouts while the wall-clock run can be uniformly sped up;
- **messages** -- every registered protocol handler crosses a JSON wire
  codec (:mod:`repro.runtime.codec`): the frame is encoded at the sender,
  held for a sampled link delay, and decoded into fresh objects at the
  receiver. Unregistered callables (client completion callbacks,
  coordinator closures) deliver as local closures -- they are the
  client-side half of the run, not protocol traffic;
- **delivery** -- messages in flight sit in one heap keyed by arrival
  time, behind a single armed loop timer. Each pump pass delivers what was
  due when the pass started; what its handlers send waits for the next
  pass, so timer callbacks interleave with message bursts;
- **link model** -- delays are sampled from the same
  :class:`~repro.net.topology.Topology` latency models the simulator
  uses, and delivery per (src, dst) link is FIFO (a message never
  overtakes an earlier one on the same link -- the TCP-like guarantee the
  conformance suite asserts for both backends);
- **timers** -- ``loop.call_at`` handles at absolute protocol times,
  cancellable exactly like sim events; no order among equal deadlines is
  promised;
- **partitions** -- dropped at send time by datacenter pair, mirroring
  :meth:`repro.net.transport.Network.send`.

What asyncio does *not* guarantee (and the sim does): determinism.
Callback interleavings depend on the OS scheduler, so two runs with one
seed differ in timing. Cross-backend comparison therefore happens at the
*trend* level -- see :mod:`repro.runtime.xval`.
"""

from __future__ import annotations

import asyncio
import math
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import spawn_rng
from repro.net.topology import Topology
from repro.net.transport import _CLASS_CODE, TrafficMatrix
from repro.runtime import codec
from repro.runtime.interface import Transport

__all__ = ["AsyncioTransport"]


def _dc_pair(dc_a: int, dc_b: int) -> Tuple[int, int]:
    """The order-free key of a datacenter pair (partitions are symmetric)."""
    return (dc_a, dc_b) if dc_a <= dc_b else (dc_b, dc_a)


class AsyncioTransport(Transport):
    """Localhost asyncio transport over a topology's latency models.

    Parameters
    ----------
    topology:
        Datacenters, node placement and per-link-class latency models --
        the identical object a sim deployment would use.
    rng:
        Seed or generator for link-delay sampling (protocol timing on this
        backend is wall-clock, so the seed shapes delays but cannot make
        the run deterministic).
    time_scale:
        Wall seconds per protocol second. ``0.1`` runs the deployment 10x
        faster than real time -- message delays *and* timer delays shrink
        uniformly, so relative protocol behaviour (timeout-to-RTT ratios,
        abort windows) is preserved while wall time stays bounded.
    """

    def __init__(
        self,
        topology: Topology,
        rng: Any = None,
        time_scale: float = 1.0,
    ):
        if time_scale <= 0:
            raise ConfigError(f"time_scale must be positive, got {time_scale}")
        self.topology = topology
        self.rng = spawn_rng(rng)
        self.time_scale = float(time_scale)
        self.traffic = TrafficMatrix()
        self.dropped = 0
        self._handlers: Dict[str, Callable[..., Any]] = {}
        self._names: Dict[Callable[..., Any], str] = {}
        self._partitioned: set = set()
        #: (src, dst) -> ``[traffic class code, latency model, ordered DC
        #: pair, latest arrival]``: ``Network``'s route memo plus the FIFO
        #: floor that stops a frame overtaking an earlier one on its link.
        self._links: Dict[Tuple[int, int], list] = {}
        #: messages in flight, ``(arrival, seq, deliver, payload)`` in loop
        #: time; ``deliver`` is ``None`` for an encoded wire frame.
        self._heap: List[Tuple[float, int, Any, Any]] = []
        self._seq = 0
        #: the one loop timer, armed for the heap head, and its loop time
        #: (``inf``: nothing armed; ``-inf``: the pump is running and will
        #: re-arm itself, so the sends its handlers make must not).
        self._armed: Optional[asyncio.TimerHandle] = None
        self._armed_at = math.inf
        self._closed = False
        #: the first exception a callback raised, re-raised by :meth:`run`
        self._error: Optional[BaseException] = None
        self._loop = asyncio.new_event_loop()
        self._loop.set_exception_handler(self._on_error)
        self._t0 = self._loop.time()

    # -- driver ------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run the loop until :meth:`stop` or protocol time ``until`` passes."""
        loop = self._loop
        guard = None
        if until is not None:
            guard = loop.call_at(self._t0 + until * self.time_scale, loop.stop)
        try:
            loop.run_forever()
        finally:
            if guard is not None:
                guard.cancel()
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def stop(self) -> None:
        self._loop.stop()

    def _on_error(self, loop: asyncio.AbstractEventLoop, context: Dict[str, Any]) -> None:
        if self._error is None:
            self._error = context.get("exception") or RuntimeError(context["message"])
        loop.stop()

    def close(self) -> None:
        """Disarm and drop every frame in flight, then close the loop; later
        sends and pending timer callbacks become no-ops."""
        self._closed = True
        if self._armed is not None:
            self._armed.cancel()
        self._armed, self._armed_at = None, math.inf
        self._heap.clear()
        if not self._loop.is_running():  # a callback closing it: the loop lives on
            self._loop.close()

    # -- clock -------------------------------------------------------------------

    @property
    def now(self) -> float:
        return (self._loop.time() - self._t0) / self.time_scale

    # -- messaging ---------------------------------------------------------------

    def register(self, name: str, deliver: Callable[..., Any]) -> None:
        if name in self._handlers:
            raise ConfigError(f"handler {name!r} registered twice")
        self._handlers[name] = deliver
        self._names[deliver] = name

    def _link(self, src: int, dst: int) -> list:
        """Resolve and memoize a node pair (the miss path of :meth:`send`)."""
        topo = self.topology
        cls = topo.link_class(src, dst)
        dcs = _dc_pair(topo.dc_of(src), topo.dc_of(dst))
        link = [_CLASS_CODE[cls], topo.latency_models[cls], dcs, 0.0]
        self._links[(src, dst)] = link
        return link

    def send(
        self,
        src: int,
        dst: int,
        nbytes: int,
        deliver: Optional[Callable[..., Any]],
        *args: Any,
    ) -> Optional[float]:
        loop = self._loop
        link = self._links.get((src, dst)) or self._link(src, dst)
        code, model, dcs, floor = link
        if self._closed or (self._partitioned and dcs in self._partitioned):
            self.dropped += 1
            return None
        traffic = self.traffic
        traffic._messages[code] += 1
        traffic._bytes[code] += int(nbytes)
        delay = model.sample(self.rng)
        if deliver is None:
            return delay  # billed and timed; takes no FIFO slot
        # FIFO per link: a frame arrives no earlier than its predecessor.
        link[3] = arrival = max(loop.time() + delay * self.time_scale, floor)
        name = self._names.get(deliver)
        if name is not None:
            # Registered protocol handler: genuinely cross the wire codec
            # (client-side closures deliver locally, args as they are).
            deliver, args = None, codec.encode(name, args)
        self._seq = seq = self._seq + 1
        heappush(self._heap, (arrival, seq, deliver, args))
        if arrival < self._armed_at:
            if self._armed is not None:
                self._armed.cancel()
            self._armed = loop.call_at(arrival, self._pump)
            self._armed_at = arrival
        return delay

    def _pump(self) -> None:
        """Deliver the frames due as the pass starts, then re-arm.

        A frame a handler sends during the pass waits for the next pass even
        at zero delay: whatever else the loop has ready runs in between.
        """
        heap = self._heap
        handlers = self._handlers
        self._armed = None
        self._armed_at = -math.inf
        now = self._loop.time()
        last = self._seq
        try:
            while heap and heap[0][0] <= now and heap[0][1] <= last:
                _, _, deliver, payload = heappop(heap)
                if deliver is None:
                    name, args = codec.decode(payload)
                    handlers[name](*args)
                else:
                    deliver(*payload)
        finally:
            if heap:
                self._armed_at = heap[0][0]
                self._armed = self._loop.call_at(self._armed_at, self._pump)
            else:  # drained, or emptied by close()
                self._armed_at = math.inf

    def sample_delay(self, src: int, dst: int) -> float:
        return float(self.topology.latency_model(src, dst).sample(self.rng))

    # -- timers ------------------------------------------------------------------

    def set_timer_at(self, when: float, fn: Callable[..., Any], *args: Any) -> Any:
        # ``when`` in loop time, without reading the clock; a past ``when``
        # fires on the loop's next pass.
        return self._loop.call_at(
            self._t0 + when * self.time_scale, self._fire, fn, args
        )

    def post_at(self, when: float, fn: Callable[..., Any], *args: Any) -> None:
        self.set_timer_at(when, fn, *args)

    def _fire(self, fn: Callable[..., Any], args: tuple) -> None:
        if self._closed:
            return
        fn(*args)

    # -- fault injection -----------------------------------------------------------

    def partition_dcs(self, dc_a: int, dc_b: int) -> None:
        if dc_a == dc_b:
            raise ConfigError(f"cannot partition datacenter {dc_a} from itself")
        self._partitioned.add(_dc_pair(dc_a, dc_b))

    def heal_partition(self, dc_a: int, dc_b: int) -> None:
        self._partitioned.discard(_dc_pair(dc_a, dc_b))

    def heal_all(self) -> None:
        self._partitioned.clear()

    def is_partitioned(self, dc_a: int, dc_b: int) -> bool:
        return _dc_pair(dc_a, dc_b) in self._partitioned
