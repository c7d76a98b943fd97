"""The wall-clock engine under ``repro.run(RunSpec(backend="asyncio"))``.

An asyncio run goes through the same pipeline as a simulated one
(:func:`repro.facade.run`): the platform's
:class:`~repro.cluster.store.ReplicatedStore`, the spec's policy, the
transactional or plain workload driver, the bill and the observer. What
:func:`run_asyncio` adds is the engine around it: an
:class:`~repro.runtime.aio.AsyncioTransport` (JSON wire codec, sampled
link delays, timers and service queues on the wall clock), per-node
write-ahead logs that are real files
(:class:`~repro.runtime.wal.FileWriteAheadLog`), the
:class:`LocalhostSpec` wall guard and smoke-sized defaults.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Optional

from repro.common.errors import ConfigError
from repro.experiments.runner import RunOutcome
from repro.net.topology import Topology
from repro.runtime.aio import AsyncioTransport
from repro.runtime.wal import FileWriteAheadLog

if TYPE_CHECKING:
    from repro.facade import RunSpec

__all__ = ["LocalhostSpec", "run_asyncio"]


@dataclass
class LocalhostSpec:
    """The wall-clock half of an asyncio run (``RunSpec.localhost``).

    Attributes
    ----------
    time_scale:
        Wall seconds per protocol second (see
        :class:`~repro.runtime.aio.AsyncioTransport`).
    wall_timeout:
        Hard cap on the run's wall-clock seconds: the run ends at protocol
        time ``wall_timeout / time_scale`` (:attr:`max_time`, the same
        bound on xval's sim twin) and reports what completed, with
        ``RunOutcome.timed_out`` set.
    wal_dir:
        Directory for per-node WAL files (``None`` = a fresh temp dir,
        removed again when the run ends).
    """

    time_scale: float = 0.05
    wall_timeout: float = 60.0
    wal_dir: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("time_scale", "wall_timeout"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def max_time(self) -> float:
        """The wall guard on the protocol clock."""
        return self.wall_timeout / self.time_scale


def run_asyncio(spec: "RunSpec") -> RunOutcome:
    """Run ``spec`` through the one run pipeline on the wall clock.

    Platform defaults are sized for the simulator (tens of thousands of
    operations in virtual time), so an unset ``ops`` is 50 operations or
    transactions and unset ``clients`` at most 8. There is no warmup
    window. Always closes the transport (and its event loop) and the
    logs, and removes a self-made WAL directory, so no frame, timer
    callback or temp file outlives the run.
    """
    from repro.facade import _pipeline  # the facade imports this module lazily

    lspec = spec.localhost or LocalhostSpec()
    spec = replace(
        spec,
        ops=spec.ops if spec.ops is not None else 50,
        clients=(
            spec.clients
            if spec.clients is not None
            else min(spec.platform.default_clients, 8)
        ),
        warmup_fraction=0.0,
    )
    transports: List[AsyncioTransport] = []
    wal_dir = lspec.wal_dir or tempfile.mkdtemp(prefix="repro-wal-")
    wals: List[FileWriteAheadLog] = []

    def wall_clock(topology: Topology) -> AsyncioTransport:
        transports.append(AsyncioTransport(topology, time_scale=lspec.time_scale))
        return transports[-1]

    def file_wal(node_id: int) -> FileWriteAheadLog:
        wals.append(FileWriteAheadLog(node_id, os.path.join(wal_dir, f"node{node_id}.wal")))
        return wals[-1]

    try:
        return _pipeline(spec, wall_clock, file_wal, lspec.max_time)
    finally:
        for transport in transports:
            transport.close()
        for wal in wals:
            wal.close()
        if lspec.wal_dir is None:
            shutil.rmtree(wal_dir, ignore_errors=True)
