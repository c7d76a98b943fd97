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
- **delivery** -- messages in flight, ``post_at`` calls and service
  completions sit in one heap keyed by protocol time, behind a single
  armed loop timer. Each pump pass delivers what was due when the pass
  started; what its handlers push waits for the next pass, so timer
  callbacks interleave with message bursts;
- **engine** -- the heap takes the simulator's entry shape ``(time, seq,
  fn, args)``, so the transport is its own :attr:`~AsyncioTransport.engine`:
  a :class:`~repro.simcore.resources.Resource` pushes its completions
  onto it inline, as on the simulator, and the transport arms its timer
  for them when control returns to it (after a pump pass or a timer
  callback, and when :meth:`~AsyncioTransport.run` starts);
- **link model** -- the :class:`~repro.net.transport.Network` the
  simulator sends through (:attr:`~AsyncioTransport.network`, built on
  this transport as its engine) bills each message, drops it across a
  partition and draws its delay; partitions and the congestion step are
  set on it. The transport adds the per-(src, dst) FIFO floor (a message
  never overtakes an earlier one on the same link -- the TCP-like
  guarantee the conformance suite asserts for both backends);
- **timers** -- ``set_timer_at`` is a ``loop.call_at`` handle at an
  absolute protocol time, cancellable exactly like a sim event; no order
  among equal deadlines is promised;
- **``run(until)``** -- a loop that wakes late (a callback blocked it)
  finds the ``until`` guard and later work due in one pass; the pump and
  the timers hold back whatever is due after ``until`` for the next
  ``run``, so nothing fires past ``until``, as on the simulator.

What asyncio does *not* guarantee (and the sim does): determinism.
Callback interleavings depend on the OS scheduler, so two runs with one
seed differ in timing. Cross-backend comparison therefore happens at the
*trend* level -- see :mod:`repro.runtime.xval`.
"""

from __future__ import annotations

import asyncio
import math
from heapq import heappop, heappush
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.net.topology import Topology
from repro.net.transport import Network
from repro.runtime import codec
from repro.runtime.interface import Transport

__all__ = ["AsyncioTransport"]


class AsyncioTransport(Transport):
    """Localhost asyncio transport over a topology's latency models.

    Parameters
    ----------
    topology:
        Datacenters, node placement and per-link-class latency models --
        the identical object a sim deployment would use.
    rng:
        Seed or generator for link-delay sampling (a store running on the
        transport reseeds it from its own seed; protocol timing on this
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
        self.time_scale = float(time_scale)
        #: the link model: billing, partitions and delay draws
        self.network = Network(self, topology, rng=rng)
        self._handlers: Dict[str, Callable[..., Any]] = {}
        self._names: Dict[Callable[..., Any], str] = {}
        #: (src, dst) -> latest arrival: the FIFO floor that stops a frame
        #: overtaking an earlier one on its link
        self._floors: Dict[Tuple[int, int], float] = {}
        #: due entries, ``(time, seq, fn, args)`` in protocol time: frames
        #: in flight (``fn`` is ``None`` for an encoded wire frame, ``args``
        #: the frame), ``post_at`` calls and inline-pushed completions
        self._heap: List[Tuple[float, int, Any, Any]] = []
        self._seq = 0
        #: callbacks run so far: heap entries and timers
        self.events_processed = 0
        #: the one loop timer, armed for the heap head, and its protocol
        #: time (``inf``: nothing armed; ``-inf``: the pump is running and
        #: re-arms itself when the pass ends, so pushes made in it need not).
        self._armed: Optional[asyncio.TimerHandle] = None
        self._armed_at = math.inf
        self._closed = False
        #: protocol time the current :meth:`run` ends at (``inf``: none)
        self._until = math.inf
        #: the first exception a callback raised, re-raised by :meth:`run`
        self._error: Optional[BaseException] = None
        self._loop = asyncio.new_event_loop()
        self._loop.set_exception_handler(self._on_error)
        self._t0 = self._loop.time()

    # -- driver ------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run the loop until :meth:`stop` or protocol time ``until`` passes."""
        loop = self._loop
        self._until = math.inf if until is None else until
        self._arm()
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

    @property
    def engine(self) -> "AsyncioTransport":
        """The transport itself: its heap is the one a completion goes on."""
        return self

    #: the network's traffic matrix (a store's ``reset_metrics`` replaces it)
    traffic = property(attrgetter("network.traffic"))

    # -- messaging ---------------------------------------------------------------

    def register(self, name: str, deliver: Callable[..., Any]) -> None:
        if name in self._handlers:
            raise ConfigError(f"handler {name!r} registered twice")
        self._handlers[name] = deliver
        self._names[deliver] = name

    def send(
        self,
        src: int,
        dst: int,
        nbytes: int,
        deliver: Optional[Callable[..., Any]],
        *args: Any,
    ) -> Optional[float]:
        if self._closed:
            return None
        delay = self.network.send(src, dst, nbytes, None)
        if delay is None or deliver is None:
            return delay  # dropped, or billed and timed: takes no FIFO slot
        # FIFO per link: a frame arrives no earlier than its predecessor.
        floors, link = self._floors, (src, dst)
        now = (self._loop.time() - self._t0) / self.time_scale
        floors[link] = arrival = max(now + delay, floors.get(link, 0.0))
        name = self._names.get(deliver)
        if name is not None:
            # Registered protocol handler: genuinely cross the wire codec
            # (client-side closures deliver locally, args as they are).
            deliver, args = None, codec.encode(name, args)
        self._seq = seq = self._seq + 1
        heappush(self._heap, (arrival, seq, deliver, args))
        if arrival < self._armed_at:
            self._arm()
        return delay

    def _pump(self) -> None:
        """Deliver the frames due as the pass starts, then re-arm.

        A frame a handler sends during the pass waits for the next pass even
        at zero delay: whatever else the loop has ready runs in between.
        Nothing due after the current run's ``until`` is delivered.
        """
        heap = self._heap
        handlers = self._handlers
        self._armed = None
        self._armed_at = -math.inf
        now = min((self._loop.time() - self._t0) / self.time_scale, self._until)
        last = self._seq
        done = 0
        try:
            while heap and heap[0][0] <= now and heap[0][1] <= last:
                _, _, deliver, payload = heappop(heap)
                done += 1
                if deliver is None:
                    name, args = codec.decode(payload)
                    handlers[name](*args)
                else:
                    deliver(*payload)
        finally:
            self.events_processed += done
            self._armed_at = math.inf
            self._arm()

    def _arm(self) -> None:
        """Arm the loop timer for the heap head if it is due before the
        armed one (the check every push ends with; inline pushes get it
        when control returns to the transport)."""
        heap = self._heap
        if heap and heap[0][0] < self._armed_at and not self._closed:
            if self._armed is not None:
                self._armed.cancel()
            self._armed_at = due = heap[0][0]
            self._armed = self._loop.call_at(self._t0 + due * self.time_scale, self._pump)

    # -- timers ------------------------------------------------------------------

    def set_timer_at(self, when: float, fn: Callable[..., Any], *args: Any) -> Any:
        # ``when`` in loop time, without reading the clock; a past ``when``
        # fires on the loop's next pass.
        timer = _Timer()
        timer.handle = self._loop.call_at(
            self._t0 + when * self.time_scale, self._fire, when, fn, args, timer
        )
        return timer

    def post_at(self, when: float, fn: Callable[..., Any], *args: Any) -> None:
        # onto the delivery heap: no loop timer of its own, and like a
        # timer, no clock read
        if self._closed:
            return
        self._seq = seq = self._seq + 1
        heappush(self._heap, (when, seq, fn, args))
        if when < self._armed_at:
            self._arm()

    def _fire(
        self, when: float, fn: Callable[..., Any], args: tuple, timer: _Timer
    ) -> None:
        if self._closed:
            return
        if when > self._until:
            # Due in the pass that also ran the ``until`` guard: hold it for
            # the next run, on a fresh loop handle the timer still cancels.
            timer.handle = self._loop.call_at(
                self._t0 + when * self.time_scale, self._fire, when, fn, args, timer
            )
            return
        self.events_processed += 1
        try:
            fn(*args)
        finally:
            self._arm()


class _Timer:
    """A ``set_timer_at`` handle: cancels the loop handle that is live now,
    also after ``_fire`` has moved the call to a fresh one."""

    __slots__ = ("handle",)

    def cancel(self) -> None:
        self.handle.cancel()
