"""Generator-based processes on top of the callback engine.

A :class:`Process` wraps a Python generator whose ``yield`` values describe
what the process waits for:

- ``yield Delay(t)`` -- sleep ``t`` simulated seconds;
- ``yield WaitEvent(we)`` -- block until someone calls ``we.succeed(value)``;
  the value is sent back into the generator.

This gives sequential code (closed-loop clients, repair daemons, failure
scripts) a readable shape while the store's message fan-out stays on the
cheap callback path.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.simcore.simulator import Simulator

__all__ = ["Delay", "WaitEvent", "Process"]


class Delay:
    """Yield instruction: suspend the process for ``duration`` seconds."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if duration < 0:
            raise SimulationError(f"negative delay {duration}")
        self.duration = float(duration)


class WaitEvent:
    """A one-shot completion signal a process can wait on.

    A producer calls :meth:`succeed` (or :meth:`fail`); every process
    currently waiting resumes with the value (or the exception raised into
    the generator).
    """

    __slots__ = ("_done", "_value", "_error", "_waiters")

    def __init__(self) -> None:
        self._done = False
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._waiters: List[Tuple[Simulator, "Process"]] = []

    @property
    def done(self) -> bool:
        """Whether the event has been completed (succeeded or failed)."""
        return self._done

    @property
    def value(self) -> Any:
        """The success value (``None`` until completion)."""
        return self._value

    def succeed(self, value: Any = None) -> None:
        """Complete the event successfully, waking all waiters."""
        if self._done:
            raise SimulationError("WaitEvent already completed")
        self._done = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for sim, proc in waiters:
            sim.post(0.0, proc._resume, value)

    def fail(self, error: BaseException) -> None:
        """Complete the event with an exception, raised inside each waiter."""
        if self._done:
            raise SimulationError("WaitEvent already completed")
        self._done = True
        self._error = error
        waiters, self._waiters = self._waiters, []
        for sim, proc in waiters:
            sim.post(0.0, proc._throw, error)

    def _register(self, sim: Simulator, proc: "Process") -> None:
        if self._done:
            if self._error is not None:
                sim.post(0.0, proc._throw, self._error)
            else:
                sim.post(0.0, proc._resume, self._value)
        else:
            self._waiters.append((sim, proc))


class Process:
    """Drives a generator as a simulated process.

    Parameters
    ----------
    sim:
        The simulator that owns the clock.
    gen:
        A generator yielding :class:`Delay` / :class:`WaitEvent` instructions.

    The process starts on the next zero-delay event (not synchronously), so
    constructing several processes before ``sim.run()`` behaves intuitively.
    ``proc.finished`` is itself a :class:`WaitEvent` completing with the
    generator's return value, so processes can wait on each other.
    """

    __slots__ = ("sim", "_gen", "finished", "name")

    def __init__(self, sim: Simulator, gen: Generator[Any, Any, Any], name: str = "proc"):
        self.sim = sim
        self._gen = gen
        self.finished = WaitEvent()
        self.name = name
        sim.post(0.0, self._resume, None)

    def _resume(self, value: Any) -> None:
        try:
            instruction = self._gen.send(value)
        except StopIteration as stop:
            self.finished.succeed(stop.value)
            return
        self._dispatch(instruction)

    def _throw(self, error: BaseException) -> None:
        try:
            instruction = self._gen.throw(error)
        except StopIteration as stop:
            self.finished.succeed(stop.value)
            return
        self._dispatch(instruction)

    def _dispatch(self, instruction: Any) -> None:
        if isinstance(instruction, Delay):
            self.sim.post(instruction.duration, self._resume, None)
        elif isinstance(instruction, WaitEvent):
            instruction._register(self.sim, self)
        elif isinstance(instruction, Process):
            instruction.finished._register(self.sim, self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported instruction "
                f"{type(instruction).__name__}; expected Delay/WaitEvent/Process"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "finished" if self.finished.done else "running"
        return f"Process({self.name!r}, {state})"
