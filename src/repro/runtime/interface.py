"""The transport/clock/timer contract the protocol core speaks.

Everything the commit protocols, the coordinator fan-out and the failure
hooks need from their environment is five capabilities:

- a **monotonic clock** (:attr:`Transport.now`),
- **message send** with a per-message delivery callback, or none
  (:meth:`Transport.send`),
- **deliver-callback registration** (:meth:`Transport.register`) so
  backends that cross a wire codec can name a handler on the wire,
- **delay sampling** (:meth:`Transport.sample_delay`) for estimators that
  want a latency draw without sending,
- **timers at absolute deployment times**: :meth:`Transport.set_timer_at`
  returns a cancellable handle, :meth:`Transport.post_at` returns none. There
  is no relative form; a caller wanting a delay writes ``now + delay``.

Whoever owns a run drives it through the **driver pair**:
:meth:`Transport.run` executes due callbacks until :meth:`Transport.stop`
is called or deployment time ``until`` passes, and leaves later timers
pending for the next ``run``. :attr:`Transport.traffic` is the
per-link-class message and byte count of everything sent.

The state machines in :mod:`repro.txn` and :mod:`repro.cluster` hold no
reference to a :class:`~repro.simcore.simulator.Simulator` or a
:class:`~repro.net.transport.Network` directly -- they go through a
:class:`Transport`, which is what lets the *same* classes run inside the
discrete-event engine (:class:`~repro.runtime.sim.SimTransport`) or as
asyncio tasks over a real wire codec
(:class:`~repro.runtime.aio.AsyncioTransport`).

What the sim backend guarantees that asyncio does not:

- **determinism** -- same seed, same event order, byte-identical output;
- **zero-cost time** -- ``now`` advances only through the event queue;
- **global ordering** -- the tie rule: entries due at a bit-equal time fire
  in the order they were pushed onto the engine, whichever verb pushed them
  (``post_at``, ``set_timer_at``, a message ``send``, a
  :class:`~repro.runtime.deadlines.DeadlineQueue`'s timer as of when it was
  armed). On asyncio no order among equal deadlines is promised.

Both backends guarantee the conformance contract asserted in
``tests/test_transport_conformance.py``: per-link FIFO delivery under a
constant-latency model, partition drops at send time, ``deliver=None``
sends are billed but never delivered, cancelled timers never fire, and
messages to a crashed node have no effect.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:
    from repro.net.transport import TrafficMatrix

__all__ = ["TimerHandle", "Transport"]


class TimerHandle:
    """The handle contract for :meth:`Transport.set_timer_at`.

    Only :meth:`cancel` is part of the contract; a cancelled timer never
    fires and cancelling twice is harmless. Backends return their native
    handle type (a sim :class:`~repro.simcore.simulator.Event`, an asyncio
    ``TimerHandle``) -- both already satisfy this.
    """

    __slots__ = ()

    def cancel(self) -> None:  # pragma: no cover - structural stub
        raise NotImplementedError


class Transport(ABC):
    """Abstract transport: clock + messaging + timers for one deployment.

    One instance serves every node of a deployment; ``src``/``dst`` are the
    dense node ids the topology assigns. All callbacks fire on the backend's
    single logical thread (the event loop), so protocol code never needs
    locks on either backend.
    """

    #: per-link-class message and byte counts of everything sent
    traffic: "TrafficMatrix"

    # -- driver ------------------------------------------------------------------

    @abstractmethod
    def run(self, until: Optional[float] = None) -> None:
        """Execute callbacks until :meth:`stop` or deployment time ``until``."""

    @abstractmethod
    def stop(self) -> None:
        """End the current :meth:`run` after the callback that calls this."""

    # -- clock -------------------------------------------------------------------

    @property
    @abstractmethod
    def now(self) -> float:
        """Monotonic deployment time in seconds (sim time or scaled wall time)."""

    # -- messaging ---------------------------------------------------------------

    @abstractmethod
    def send(
        self,
        src: int,
        dst: int,
        nbytes: int,
        deliver: Optional[Callable[..., Any]],
        *args: Any,
    ) -> Optional[float]:
        """Send ``nbytes`` from ``src`` to ``dst``; ``deliver(*args)`` fires on arrival.

        Returns the sampled one-way delay, or ``None`` when the message is
        dropped (a partition). ``deliver=None`` bills, times and drops the
        message alike but queues nothing; the caller acts at ``now + delay``
        itself (bit for bit the delivery time on the sim backend; asyncio's
        per-link FIFO floor neither holds nor counts it). Backends that
        serialize across a wire codec
        require ``deliver`` to have been :meth:`register`-ed so it can be
        named on the wire; unregistered callables are delivered as local
        closures (the client-side completion path).
        """

    @abstractmethod
    def register(self, name: str, deliver: Callable[..., Any]) -> None:
        """Declare ``deliver`` as a wire-addressable handler called ``name``.

        Names must be unique per deployment (convention:
        ``"p{node}.on_prepare"``). The sim backend ignores registration --
        callbacks are plain function references inside one process -- but
        protocol harnesses register anyway so the same wiring code drives
        every backend.
        """

    @abstractmethod
    def sample_delay(self, src: int, dst: int) -> float:
        """Draw one link delay without sending (estimator support)."""

    # -- timers ------------------------------------------------------------------

    @abstractmethod
    def set_timer_at(self, when: float, fn: Callable[..., Any], *args: Any) -> Any:
        """Call ``fn(*args)`` at absolute deployment time ``when``; returns a
        cancellable handle."""

    @abstractmethod
    def post_at(self, when: float, fn: Callable[..., Any], *args: Any) -> None:
        """Like :meth:`set_timer_at` for a call nobody cancels: no handle."""

    # -- fault injection -----------------------------------------------------------

    @abstractmethod
    def partition_dcs(self, dc_a: int, dc_b: int) -> None:
        """Symmetrically drop all future traffic between two datacenters."""

    @abstractmethod
    def heal_partition(self, dc_a: int, dc_b: int) -> None:
        """Restore traffic between two datacenters (no-op if not partitioned)."""

    @abstractmethod
    def heal_all(self) -> None:
        """Remove every active partition."""

    @abstractmethod
    def is_partitioned(self, dc_a: int, dc_b: int) -> bool:
        """Whether traffic between the two datacenters is currently dropped."""
