"""The engine contract: one clock, two timer verbs, one driver pair.

Code outside the engine reads time and schedules through
:class:`~repro.runtime.interface.Transport` (``now``, ``post_at``,
``set_timer_at``) and drives a run through it (``run``, ``stop``); only
``simcore/`` and the sim transport touch the simulator's clock,
scheduling verbs and driver. The one sanctioned exception is
``Network.send``'s inline heap push, which reads ``sim.now`` to stamp the
entry (a measured frame per message; see ``simcore/simulator.py``).
"""

import importlib
import re
from pathlib import Path

import pytest

import repro
from repro.common.errors import SimulationError
from repro.net.topology import Datacenter, Topology
from repro.net.transport import Network
from repro.runtime.aio import AsyncioTransport
from repro.runtime.interface import Transport
from repro.runtime.sim import SimTransport
from repro.simcore.simulator import Simulator

SRC = Path(repro.__file__).resolve().parent
REACH = re.compile(r"\bsim\.(now|post|post_at|schedule|schedule_at)\b")
DRIVE = re.compile(r"\bsim\.(run|stop)\(")
#: (file relative to src/repro, stripped line) of every allowed hit
ALLOWED = {
    ("net/transport.py", "heappush(sim._heap, (sim.now + delay, seq, deliver, args))"),
}


def _hits(pattern):
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("simcore/") or rel == "runtime/sim.py":
            continue
        for line in path.read_text().splitlines():
            if pattern.search(line):
                yield rel, line.strip()


def test_no_clock_or_timer_reach_through_outside_the_engine():
    assert set(_hits(REACH)) == ALLOWED


def test_runs_are_driven_through_the_transport():
    assert list(_hits(DRIVE)) == []


@pytest.mark.parametrize("cls", [Transport, SimTransport, AsyncioTransport])
def test_every_transport_has_the_driver_pair(cls):
    assert hasattr(cls, "run") and hasattr(cls, "stop")


def test_both_transports_count_traffic():
    topology = Topology([Datacenter("a", "r")], [2])
    sim = Simulator()
    t = SimTransport(sim, Network(sim, topology))
    assert t.run == sim.run and t.stop == sim.stop
    assert t.traffic is t.network.traffic
    aio = AsyncioTransport(topology)
    aio.close()
    assert aio.traffic.total_bytes() == 0


def test_simulator_exposes_only_the_driver_and_absolute_verbs():
    for gone in ("post", "step", "peek_time"):
        assert not hasattr(Simulator, gone), gone
    for kept in ("post_at", "schedule_at", "schedule", "run", "stop", "pending", "reset"):
        assert callable(getattr(Simulator, kept)), kept


def test_schedule_is_schedule_at_from_now():
    sim = Simulator()
    sim.run(until=0.1)
    handle = sim.schedule(0.2, lambda: None)
    assert handle.time == 0.1 + 0.2  # the float schedule_at(now + delay) takes


def test_sim_transport_timers_reject_the_past():
    sim = Simulator()
    t = SimTransport(sim, Network(sim, Topology([Datacenter("a", "r")], [2])))
    sim.run(until=1.0)
    for verb in (t.set_timer_at, t.post_at):
        with pytest.raises(SimulationError):
            verb(0.5, lambda: None)
    assert sim.pending() == 0


@pytest.mark.parametrize("cls", [Transport, SimTransport, AsyncioTransport])
def test_transport_has_no_relative_timer(cls):
    assert not hasattr(cls, "set_timer")
    assert hasattr(cls, "set_timer_at") and hasattr(cls, "post_at")


def test_generator_processes_are_gone():
    with pytest.raises(ImportError):
        importlib.import_module("repro.simcore.process")
