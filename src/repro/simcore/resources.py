"""FIFO service resources: the queueing model behind node service times.

A :class:`Resource` represents ``servers`` identical servers in front of a
FIFO queue (an M/G/c station when arrivals are Poisson). Storage nodes use
one resource per node to model request service time *and* the queueing delay
that appears under load -- this queueing delay is what makes strong
consistency levels slower at high throughput in the reproduction, exactly
the mechanism the paper's evaluation exercises.

The implementation is callback-based: ``submit()`` returns immediately and
the ``done`` callback fires when service completes. A resource runs on
either engine: it pushes its completions onto the heap of the engine under
a store's transport (``Transport.engine``) -- the simulator's, or the
asyncio transport's delivery heap, which takes the same entries.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, Tuple

from repro.common.errors import ConfigError

__all__ = ["Resource"]


class Resource:
    """``servers`` identical servers with one shared FIFO queue.

    Parameters
    ----------
    engine:
        The event engine that owns the clock and the heap
        (:attr:`repro.runtime.interface.Transport.engine`).
    servers:
        Degree of service parallelism (e.g. CPU threads of a node).
    name:
        Diagnostic label used in ``repr`` and error messages.

    Notes
    -----
    Service times are supplied *per request* by the caller, which keeps the
    resource model-agnostic (deterministic, exponential, empirical -- the
    caller decides).

    A service start pushes its completion itself (the heap-entry invariant
    of :mod:`repro.simcore.simulator`): no frame on the simulator, one heap
    for both engines.
    """

    __slots__ = (
        "engine",
        "servers",
        "name",
        "_busy",
        "_queue",
        "completed",
        "_busy_integral",
        "_last_change",
    )

    def __init__(self, engine: Any, servers: int = 1, name: str = "resource"):
        if servers < 1:
            raise ConfigError(f"servers must be >= 1, got {servers}")
        self.engine = engine
        self.servers = int(servers)
        self.name = name
        self._busy = 0
        self._queue: Deque[Tuple[float, Callable[..., Any], Tuple[Any, ...]]] = deque()
        self.completed = 0
        # busy-time integral (server-seconds of actual work), the basis of
        # the dynamic part of the power model; brought up to date in place
        # at every change of ``_busy``.
        self._busy_integral = 0.0
        self._last_change = engine.now

    # -- public API -------------------------------------------------------------

    def submit(
        self,
        service: float,
        done: Callable[..., Any],
        *args: Any,
    ) -> None:
        """Enqueue a request needing ``service`` seconds; call ``done(*args)`` after.

        The completion callback fires at ``now + queueing-delay + service``.
        """
        if service < 0:
            raise ConfigError(f"negative service time {service}")
        engine = self.engine
        now = engine.now
        busy = self._busy
        if busy < self.servers:
            # A server is idle: service starts at once, with zero wait.
            self._busy_integral += busy * (now - self._last_change)
            self._last_change = now
            self._busy = busy + 1
            engine._seq = seq = engine._seq + 1
            heappush(engine._heap, (now + service, seq, self._finish, (done, args)))
        else:
            self._queue.append((service, done, args))

    @property
    def busy(self) -> int:
        """Number of servers currently serving a request."""
        return self._busy

    @property
    def queued(self) -> int:
        """Number of requests waiting for a free server."""
        return len(self._queue)

    def busy_seconds(self) -> float:
        """Cumulative server-seconds spent serving (the energy meter)."""
        return self._busy_integral + self._busy * (self.engine.now - self._last_change)

    # -- internals ---------------------------------------------------------------

    def _finish(self, done: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        engine = self.engine
        now = engine.now
        self._busy_integral += self._busy * (now - self._last_change)
        self._last_change = now
        self.completed += 1
        if self._queue:
            # The freed server goes straight to the longest-waiting request
            # (``_busy`` is unchanged), before ``done`` can submit more work.
            service, nxt_done, nxt_args = self._queue.popleft()
            engine._seq = seq = engine._seq + 1
            heappush(engine._heap, (now + service, seq, self._finish, (nxt_done, nxt_args)))
        else:
            self._busy -= 1
        done(*args)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Resource({self.name!r}, servers={self.servers}, busy={self._busy}, "
            f"queued={len(self._queue)}, completed={self.completed})"
        )
