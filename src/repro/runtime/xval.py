"""Cross-validation: the simulator's predictions vs. the asyncio runtime.

The repository's claims rest on the discrete-event simulator; this module
checks that the *same protocol classes* produce the *same qualitative
behaviour* when executed on real asyncio timers and a real wire codec.
Both sides of the comparison share everything except the execution
engine:

- one :class:`~repro.runtime.localhost.LocalhostSpec` (workload, keyspace
  hotspot, topology, protocol config, seed);
- one :class:`~repro.runtime.localhost.LocalhostStore` facade (placement,
  liveness, the staleness oracle, the level-ONE read path);
- one :class:`~repro.txn.api.TransactionalStore` with the shared TM and
  participant state machines.

:func:`run_sim_twin` drives that stack over a
:class:`~repro.runtime.sim.SimTransport` (deterministic virtual time);
:func:`~repro.runtime.localhost.run_localhost` drives it over an
:class:`~repro.runtime.aio.AsyncioTransport` (wall clock). The asyncio
side is **not deterministic** -- OS scheduling jitters every delivery --
so the comparison is a *trend contract*, not an equality check:

**Tolerance contract** (documented in ``docs/ARCHITECTURE.md``; the
defaults below are the contract's numbers):

1. *Pointwise*: at every contention level, ``|abort_rate_sim -
   abort_rate_aio| <= abort_tolerance`` (default **0.20**) and
   ``|stale_rate_sim - stale_rate_aio| <= stale_tolerance`` (default
   **0.25**).
2. *Trend*: between consecutive contention levels, whenever the sim's
   metric moves by more than ``trend_deadband`` (default **0.05**), the
   asyncio metric must not move the *opposite* way by more than the
   deadband. (Moves inside the deadband are noise on either side.)

The asyncio runtime schedules callbacks with ~0.1-1 ms wall jitter, which
``time_scale`` multiplies into protocol time; specs whose link delays
dwarf that jitter (multi-DC topologies, ``time_scale >= 0.2``) keep the
distortion second-order, which is why :func:`default_xval_spec` uses a
2-datacenter WAN topology rather than a single-DC one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

from repro.common.errors import ConfigError
from repro.common.rng import spawn_rng
from repro.net.transport import Network
from repro.runtime.localhost import LocalhostSpec, LocalhostStore, run_localhost
from repro.runtime.sim import SimTransport
from repro.simcore.simulator import Simulator
from repro.txn.api import TransactionalStore

__all__ = [
    "run_sim_twin",
    "default_xval_spec",
    "XvalCheck",
    "XvalReport",
    "cross_validate",
]


def run_sim_twin(spec: LocalhostSpec) -> Dict[str, Any]:
    """Run ``spec`` on the deterministic sim backend; same result shape.

    The exact stack :func:`~repro.runtime.localhost.run_localhost` builds,
    with :class:`~repro.runtime.sim.SimTransport` swapped in for the
    asyncio transport and a callback-driven closed loop standing in for
    the client coroutines. In-memory WALs (the sim models durability; the
    asyncio side's files are the real thing).
    """
    topology = spec.build_topology()
    sim = Simulator()
    network = Network(sim, topology, rng=spec.seed)
    transport = SimTransport(sim, network)
    store = LocalhostStore(
        topology,
        transport,
        replication_factor=min(spec.replication_factor, topology.n_nodes),
        seed=spec.seed,
        default_value_size=spec.value_size,
    )
    tstore = TransactionalStore(store, policy=None, config=spec.txn_config)
    for at, node_id, duration in spec.crashes:
        transport.set_timer_at(at, store.crash_node, node_id)
        if duration is not None:
            transport.set_timer_at(at + duration, store.recover_node, node_id)

    rng = spawn_rng(spec.seed + 1)
    state = {"remaining": spec.txns, "outcomes": 0, "running": spec.clients}

    def issue_next() -> None:
        if state["remaining"] <= 0:
            state["running"] -= 1
            if state["running"] == 0:
                sim.stop()
            return
        state["remaining"] -= 1
        txn = tstore.begin()
        keys = sorted({spec.sample_key(rng) for _ in range(spec.writes_per_txn)})
        for _ in range(spec.reads_per_txn):
            txn.read(spec.sample_key(rng))
        for key in keys:
            txn.write(key, spec.value_size)

        def done(outcome) -> None:
            state["outcomes"] += 1
            transport.post_at(transport.now, issue_next)

        txn.commit(done)

    for _ in range(spec.clients):
        transport.post_at(transport.now, issue_next)
    # The protocol-time analogue of the asyncio side's wall cap.
    sim.run(until=spec.wall_timeout / spec.time_scale)

    return {
        "txn": tstore.txn_summary(),
        "stale_rate": store.oracle.stale_rate,
        "reads": store.oracle.reads,
        "mean_propagation_s": store.oracle.mean_propagation_time(),
        "outcomes": state["outcomes"],
        "protocol_seconds": transport.now,
        "dropped_msgs": network.dropped,
        "wal_dir": None,
        "timed_out": state["running"] > 0,
    }


def default_xval_spec(**overrides: Any) -> LocalhostSpec:
    """The stock cross-validation scenario: a 2-DC WAN transactional mix.

    Inter-region link delays (40 ms one-way) dominate asyncio scheduling
    jitter, so protocol-visible timing distortion stays second-order; the
    contention dial (``hot_fraction``) is what :func:`cross_validate`
    sweeps.
    """
    base = dict(
        n_dcs=2,
        nodes_per_dc=3,
        replication_factor=3,
        txns=40,
        clients=6,
        writes_per_txn=2,
        reads_per_txn=1,
        n_keys=60,
        hot_keys=3,
        hot_fraction=0.5,
        value_size=200,
        seed=13,
        time_scale=0.25,
        wall_timeout=120.0,
    )
    base.update(overrides)
    return LocalhostSpec(**base)


@dataclass
class XvalCheck:
    """Sim-vs-asyncio comparison at one contention level."""

    hot_fraction: float
    sim_abort_rate: float
    aio_abort_rate: float
    sim_stale_rate: float
    aio_stale_rate: float
    sim_commit_ms: float
    aio_commit_ms: float
    aio_timed_out: bool
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class XvalReport:
    """Verdict of one cross-validation sweep."""

    checks: List[XvalCheck]
    abort_tolerance: float
    stale_tolerance: float
    trend_deadband: float
    trend_failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.trend_failures and all(c.ok for c in self.checks)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "passed": self.passed,
            "abort_tolerance": self.abort_tolerance,
            "stale_tolerance": self.stale_tolerance,
            "trend_deadband": self.trend_deadband,
            "trend_failures": list(self.trend_failures),
            "levels": [
                {
                    "hot_fraction": c.hot_fraction,
                    "sim_abort_rate": c.sim_abort_rate,
                    "aio_abort_rate": c.aio_abort_rate,
                    "sim_stale_rate": c.sim_stale_rate,
                    "aio_stale_rate": c.aio_stale_rate,
                    "sim_commit_ms": c.sim_commit_ms,
                    "aio_commit_ms": c.aio_commit_ms,
                    "aio_timed_out": c.aio_timed_out,
                    "failures": list(c.failures),
                }
                for c in self.checks
            ],
        }


def _trend_failures(
    label: str,
    levels: Sequence[float],
    sim_series: Sequence[float],
    aio_series: Sequence[float],
    deadband: float,
) -> List[str]:
    """Direction disagreements between consecutive contention levels."""
    out: List[str] = []
    for i in range(1, len(levels)):
        d_sim = sim_series[i] - sim_series[i - 1]
        d_aio = aio_series[i] - aio_series[i - 1]
        if abs(d_sim) <= deadband:
            continue  # the sim calls this step flat; any aio move is noise
        if abs(d_aio) > deadband and (d_sim > 0) != (d_aio > 0):
            out.append(
                f"{label} trend disagrees on hot_fraction "
                f"{levels[i - 1]:.2f}->{levels[i]:.2f}: "
                f"sim moved {d_sim:+.3f}, asyncio moved {d_aio:+.3f}"
            )
    return out


def cross_validate(
    spec: Optional[LocalhostSpec] = None,
    hot_fractions: Sequence[float] = (0.0, 0.5, 0.95),
    abort_tolerance: float = 0.20,
    stale_tolerance: float = 0.25,
    trend_deadband: float = 0.05,
) -> XvalReport:
    """Sweep the contention dial on both backends and check the contract.

    For each ``hot_fraction`` the same spec runs once per backend; the
    report carries per-level metrics, pointwise tolerance verdicts and
    trend-direction verdicts (see the module docstring for the contract).
    """
    if len(hot_fractions) < 2:
        raise ConfigError("cross-validation needs at least 2 contention levels")
    base = spec or default_xval_spec()
    checks: List[XvalCheck] = []
    for hf in hot_fractions:
        level_spec = replace(base, hot_fraction=float(hf))
        sim_result = run_sim_twin(level_spec)
        aio_result = run_localhost(level_spec)
        check = XvalCheck(
            hot_fraction=float(hf),
            sim_abort_rate=sim_result["txn"]["abort_rate"],
            aio_abort_rate=aio_result["txn"]["abort_rate"],
            sim_stale_rate=sim_result["stale_rate"],
            aio_stale_rate=aio_result["stale_rate"],
            sim_commit_ms=sim_result["txn"]["commit_latency_mean_ms"],
            aio_commit_ms=aio_result["txn"]["commit_latency_mean_ms"],
            aio_timed_out=bool(aio_result["timed_out"]),
        )
        if check.aio_timed_out:
            check.failures.append(
                f"asyncio run hit the {level_spec.wall_timeout}s wall timeout"
            )
        d_abort = abs(check.sim_abort_rate - check.aio_abort_rate)
        if d_abort > abort_tolerance:
            check.failures.append(
                f"abort_rate gap {d_abort:.3f} exceeds tolerance "
                f"{abort_tolerance} (sim {check.sim_abort_rate:.3f}, "
                f"asyncio {check.aio_abort_rate:.3f})"
            )
        d_stale = abs(check.sim_stale_rate - check.aio_stale_rate)
        if d_stale > stale_tolerance:
            check.failures.append(
                f"stale_rate gap {d_stale:.3f} exceeds tolerance "
                f"{stale_tolerance} (sim {check.sim_stale_rate:.3f}, "
                f"asyncio {check.aio_stale_rate:.3f})"
            )
        checks.append(check)

    levels = [c.hot_fraction for c in checks]
    trend = _trend_failures(
        "abort_rate",
        levels,
        [c.sim_abort_rate for c in checks],
        [c.aio_abort_rate for c in checks],
        trend_deadband,
    )
    trend += _trend_failures(
        "stale_rate",
        levels,
        [c.sim_stale_rate for c in checks],
        [c.aio_stale_rate for c in checks],
        trend_deadband,
    )
    return XvalReport(
        checks=checks,
        abort_tolerance=abort_tolerance,
        stale_tolerance=stale_tolerance,
        trend_deadband=trend_deadband,
        trend_failures=trend,
    )
