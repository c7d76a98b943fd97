"""Discrete-event :class:`Transport`: a pure view over ``(Simulator, Network)``.

``SimTransport(topology)`` builds the two and adds nothing. ``send`` *is* the network's
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
from typing import Any, Callable, Dict, Optional

from repro.net.topology import Topology
from repro.net.transport import Network
from repro.runtime.interface import Transport
from repro.simcore.simulator import Simulator

__all__ = ["SimTransport"]


class SimTransport(Transport):
    """The simulator-backed transport (the default everywhere).

    Parameters
    ----------
    topology:
        Node placement and latency models of the deployment.
    rng:
        Seed or generator for link delays (a store running on the
        transport reseeds it from its own seed).
    sim:
        The simulator that owns the clock and event queue (default: a new
        one).
    """

    __slots__ = (
        "sim", "engine", "network", "send", "post_at", "set_timer_at", "run", "stop",
        "_handlers",
    )

    def __init__(
        self, topology: Topology, rng: Any = None, sim: Optional[Simulator] = None
    ):
        self.sim = self.engine = sim = sim if sim is not None else Simulator()
        #: the latency/partition/traffic model messages travel through
        self.network = network = Network(sim, topology, rng=rng)
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
