"""Runtime backends: one protocol core, two execution engines.

- :class:`~repro.runtime.interface.Transport` -- the clock/send/timer
  contract the protocol state machines speak;
- :class:`~repro.runtime.sim.SimTransport` -- the deterministic
  discrete-event backend (a pure view over ``Simulator`` + ``Network``);
- :class:`~repro.runtime.aio.AsyncioTransport` -- the localhost asyncio
  backend: real timers and a JSON wire codec, under the run facade's one
  pipeline (:mod:`repro.runtime.localhost` adds file-backed WALs and the
  wall guard).
- :class:`~repro.runtime.deadlines.DeadlineQueue` -- one armed timer for
  all operations that share a timeout (on either backend).

``AsyncioTransport``, ``FileWriteAheadLog`` and ``LocalhostSpec`` are
lazy exports: the first attribute access imports their module, so an
``import repro`` that only simulates never loads asyncio.

``BACKENDS`` lists the valid values of the ``backend=`` knob threaded
through :class:`repro.RunSpec`, scenarios, sweeps and the CLI.
"""

from repro.runtime.interface import TimerHandle, Transport
from repro.runtime.sim import SimTransport
from repro.runtime.deadlines import DeadlineQueue

__all__ = [
    "BACKENDS",
    "TimerHandle",
    "Transport",
    "SimTransport",
    "AsyncioTransport",
    "DeadlineQueue",
    "FileWriteAheadLog",
    "LocalhostSpec",
]

#: Valid values of the ``backend`` knob.
BACKENDS = ("sim", "asyncio")

#: Lazily-resolved exports: the localhost harness (and its file-backed
#: WAL) import the txn package, which imports the cluster package, which
#: imports :mod:`repro.runtime.interface` -- eager imports here would close
#: that cycle. PEP 562 attribute access keeps this package importable
#: from anywhere in the stack, and keeps asyncio (with ssl, socket and
#: subprocess) out of every run on the simulator.
_LAZY = {
    "AsyncioTransport": "repro.runtime.aio",
    "FileWriteAheadLog": "repro.runtime.wal",
    "LocalhostSpec": "repro.runtime.localhost",
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)
