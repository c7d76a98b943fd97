"""Cross-validation: the simulator's predictions vs. the asyncio runtime.

The repository's claims rest on the discrete-event simulator; this module
checks that the *same store and protocol classes* produce the *same
qualitative behaviour* when executed on real asyncio timers and a real
wire codec. Both sides of the comparison share everything except the
execution engine: one :class:`~repro.facade.RunSpec` (platform, policy,
transactional workload, protocol config, seed) run through one pipeline,
:func:`repro.run` -- once with ``backend="sim"`` (deterministic virtual
time) and once with ``backend="asyncio"`` (wall clock). The asyncio side
is **not deterministic** -- OS scheduling jitters every delivery -- so
the comparison is a *trend contract*, not an equality check:

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

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

from repro.cluster.replication import SimpleStrategy
from repro.common.errors import ConfigError
from repro.cost.pricing import FREE_PRIVATE_CLOUD
from repro.experiments.platforms import Platform
from repro.experiments.runner import static_factory
from repro.facade import RunSpec, run
from repro.net.topology import Datacenter, Topology
from repro.runtime.localhost import LocalhostSpec
from repro.workload.workloads import TxnWorkloadSpec

__all__ = [
    "default_xval_spec",
    "XvalCheck",
    "XvalReport",
    "cross_validate",
]


def _xval_platform() -> Platform:
    """2 datacenters x 3 nodes, RF 3, 40 ms one-way between the regions."""
    return Platform(
        name="xval-2dc",
        topology_factory=lambda: Topology(
            [Datacenter(f"dc{i}", f"region{i}") for i in range(2)], [3, 3]
        ),
        strategy_factory=lambda: SimpleStrategy(rf=3),
        prices=FREE_PRIVATE_CLOUD,
        default_record_count=60,
        default_ops=40,
        default_clients=6,
    )


def default_xval_spec(
    txns: int = 40,
    clients: int = 6,
    seed: int = 13,
    time_scale: float = 0.25,
    wall_timeout: float = 120.0,
    commit_protocol: Optional[str] = None,
) -> RunSpec:
    """The stock cross-validation scenario: a 2-DC WAN transactional mix.

    Each transaction reads and rewrites one key and blind-writes a second,
    drawn from 60 keys whose first 3 are hot. Inter-region link delays
    (40 ms one-way) dominate asyncio scheduling jitter, so
    protocol-visible timing distortion stays second-order; the contention
    dial (the hot keys' share of draws) is what :func:`cross_validate`
    sweeps.
    """
    return RunSpec(
        platform=_xval_platform(),
        policy=static_factory(1, 1, name="one"),  # reads and writes at ONE
        txn_workload=TxnWorkloadSpec(
            name="xval-mix",
            n_keys=2,
            read_slots=(0,),
            write_slots=(0, 1),
            record_count=60,
            value_size=200,
            distribution="hotspot",
            distribution_kwargs={"hot_set_fraction": 0.05, "hot_opn_fraction": 0.5},
        ),
        ops=txns,
        clients=clients,
        seed=seed,
        warmup_fraction=0.0,  # as on asyncio, which has no warmup window
        commit_protocol=commit_protocol,
        backend="asyncio",
        localhost=LocalhostSpec(time_scale=time_scale, wall_timeout=wall_timeout),
    )


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
            "levels": [asdict(c) for c in self.checks],
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
    spec: Optional[RunSpec] = None,
    hot_fractions: Sequence[float] = (0.0, 0.5, 0.95),
    abort_tolerance: float = 0.20,
    stale_tolerance: float = 0.25,
    trend_deadband: float = 0.05,
) -> XvalReport:
    """Sweep the contention dial on both backends and check the contract.

    ``spec`` is an asyncio :class:`~repro.facade.RunSpec` over a
    ``hotspot`` transactional workload with no warmup window (default
    :func:`default_xval_spec`). For each ``hot_fraction`` -- the hot set's
    share of key draws -- it runs once on each backend; the report
    carries per-level metrics, pointwise tolerance verdicts and
    trend-direction verdicts (see the module docstring for the contract).
    """
    if len(hot_fractions) < 2:
        raise ConfigError("cross-validation needs at least 2 contention levels")
    base = spec or default_xval_spec()
    workload = base.txn_workload
    if base.backend != "asyncio" or workload is None or workload.distribution != "hotspot":
        raise ConfigError(
            "cross-validation needs an asyncio spec with a hotspot txn_workload"
        )
    if base.warmup_fraction:
        # the asyncio side measures whole runs; the sim side must too
        raise ConfigError("cross-validation needs warmup_fraction=0")
    tolerances = (("abort_rate", abort_tolerance), ("stale_rate", stale_tolerance))
    checks: List[XvalCheck] = []
    for hf in hot_fractions:
        kwargs = dict(workload.distribution_kwargs, hot_opn_fraction=float(hf))
        level_spec = replace(
            base, txn_workload=replace(workload, distribution_kwargs=kwargs)
        )
        sim, aio = run(replace(level_spec, backend="sim")).report, run(level_spec)
        check = XvalCheck(
            hot_fraction=float(hf),
            sim_abort_rate=sim.txn["abort_rate"],
            aio_abort_rate=aio.report.txn["abort_rate"],
            sim_stale_rate=sim.stale_rate,
            aio_stale_rate=aio.report.stale_rate,
            sim_commit_ms=sim.txn["commit_latency_mean_ms"],
            aio_commit_ms=aio.report.txn["commit_latency_mean_ms"],
            aio_timed_out=aio.timed_out,
        )
        if check.aio_timed_out:
            wall = (base.localhost or LocalhostSpec()).wall_timeout
            check.failures.append(f"asyncio run hit the {wall}s wall timeout")
        for metric, tolerance in tolerances:
            sim_v, aio_v = getattr(check, f"sim_{metric}"), getattr(check, f"aio_{metric}")
            if abs(sim_v - aio_v) > tolerance:
                check.failures.append(
                    f"{metric} gap {abs(sim_v - aio_v):.3f} exceeds tolerance "
                    f"{tolerance} (sim {sim_v:.3f}, asyncio {aio_v:.3f})"
                )
        checks.append(check)

    levels = [c.hot_fraction for c in checks]
    trend = [
        failure
        for metric, _ in tolerances
        for failure in _trend_failures(
            metric,
            levels,
            [getattr(c, f"sim_{metric}") for c in checks],
            [getattr(c, f"aio_{metric}") for c in checks],
            trend_deadband,
        )
    ]
    return XvalReport(
        checks=checks,
        abort_tolerance=abort_tolerance,
        stale_tolerance=stale_tolerance,
        trend_deadband=trend_deadband,
        trend_failures=trend,
    )
