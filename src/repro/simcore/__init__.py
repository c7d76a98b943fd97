"""Discrete-event simulation engine.

A minimal, fast event-driven core purpose-built for the replicated-store
simulator:

- :class:`~repro.simcore.simulator.Simulator` -- binary-heap event queue with
  a simulated clock, callback scheduling (``post_at`` / ``schedule_at``) and
  cancellation;
- :class:`~repro.simcore.resources.Resource` -- FIFO service stations used to
  model node service times and queueing delay.

Everything is callback-based. Code outside the engine schedules through
:class:`~repro.runtime.interface.Transport`, never through the simulator.
"""

from repro.simcore.events import Event
from repro.simcore.simulator import Simulator
from repro.simcore.resources import Resource

__all__ = ["Event", "Simulator", "Resource"]
