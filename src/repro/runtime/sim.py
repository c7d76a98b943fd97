"""Discrete-event :class:`Transport`: a pure view over ``(Simulator, Network)``.

``SimTransport`` owns nothing and adds nothing. ``send`` *is* the network's
bound ``Network.send``, ``post_at`` / ``set_timer_at`` are
``Simulator.post_at`` / ``schedule_at`` and the driver pair ``run`` /
``stop`` is ``Simulator.run`` / ``stop`` (taken once at construction, so a
message hop or a timer costs no frame here); ``now`` and ``traffic`` are
C-level ``attrgetter`` properties. A run through
``SimTransport`` therefore performs exactly the ``Network.send`` and
``Simulator`` calls the protocol code asks for, in the same order, and
seeded sweeps stay byte-identical (asserted by the determinism check in CI
and by ``tests/test_golden_reports.py``).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Dict

from repro.runtime.interface import Transport

__all__ = ["SimTransport"]


class SimTransport(Transport):
    """The simulator-backed transport (the default everywhere).

    Parameters
    ----------
    sim:
        The simulator that owns the clock and event queue.
    network:
        The latency/partition/traffic model messages travel through.
    """

    __slots__ = (
        "sim", "network", "send", "post_at", "set_timer_at", "run", "stop", "_handlers",
    )

    def __init__(self, sim: Any, network: Any):
        self.sim = sim
        self.network = network
        #: :meth:`Transport.send` -- the network's own bound method (the
        #: slot also satisfies the abstract declaration).
        self.send = network.send
        self.post_at = sim.post_at  # likewise, and the timer below
        self.set_timer_at = sim.schedule_at
        self.run = sim.run  # the driver pair, likewise
        self.stop = sim.stop
        #: name -> handler, kept for introspection/conformance only; sim
        #: delivery never consults it (callbacks are direct references).
        self._handlers: Dict[str, Callable[..., Any]] = {}

    # -- clock -------------------------------------------------------------------

    now = property(attrgetter("sim.now"))

    #: the network's traffic matrix (a store's ``reset_metrics`` replaces it)
    traffic = property(attrgetter("network.traffic"))

    # -- messaging ---------------------------------------------------------------

    def register(self, name: str, deliver: Callable[..., Any]) -> None:
        self._handlers[name] = deliver

    def sample_delay(self, src: int, dst: int) -> float:
        return self.network.sample_delay(src, dst)

    # -- fault injection -----------------------------------------------------------

    def partition_dcs(self, dc_a: int, dc_b: int) -> None:
        self.network.partition_dcs(dc_a, dc_b)

    def heal_partition(self, dc_a: int, dc_b: int) -> None:
        self.network.heal_partition(dc_a, dc_b)

    def heal_all(self) -> None:
        self.network.heal_all()

    def is_partitioned(self, dc_a: int, dc_b: int) -> bool:
        # Not Network.is_partitioned, which takes *node* ids: the Transport
        # contract (and the asyncio backend) speak datacenter indices.
        return self.network.dcs_partitioned(dc_a, dc_b)
