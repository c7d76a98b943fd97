"""Runtime backends: one protocol core, two execution engines.

- :class:`~repro.runtime.interface.Transport` -- the clock/send/timer
  contract the protocol state machines speak;
- :class:`~repro.runtime.sim.SimTransport` -- the deterministic
  discrete-event backend (a pure view over ``Simulator`` + ``Network``);
- :class:`~repro.runtime.aio.AsyncioTransport` -- the localhost asyncio
  backend: real timers, a JSON wire codec, file-backed WALs; what runs on
  it is :mod:`repro.runtime.localhost`'s deployment.
- :class:`~repro.runtime.deadlines.DeadlineQueue` -- one armed timer for
  all operations that share a timeout (on either backend).

``BACKENDS`` lists the valid values of the ``backend=`` knob threaded
through :class:`repro.RunSpec`, scenarios, sweeps and the CLI.
"""

from repro.runtime.interface import TimerHandle, Transport
from repro.runtime.sim import SimTransport
from repro.runtime.aio import AsyncioTransport
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
    "LocalhostStore",
]

#: Valid values of the ``backend`` knob.
BACKENDS = ("sim", "asyncio")

#: Lazily-resolved exports: the localhost harness (and its file-backed
#: WAL) import the txn package, which imports the cluster package, which
#: imports :mod:`repro.runtime.sim` -- eager imports here would close
#: that cycle. PEP 562 attribute access keeps this package importable
#: from anywhere in the stack.
_LAZY = {
    "FileWriteAheadLog": "repro.runtime.wal",
    "LocalhostSpec": "repro.runtime.localhost",
    "LocalhostStore": "repro.runtime.localhost",
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)
