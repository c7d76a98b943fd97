"""FIG1: staleness-model validation, and E5: behavior-modeling evaluation.

**FIG1.** Figure 1 underlies the estimation model; this experiment sweeps
the per-key write rate and read level and compares three independent
numbers: the closed form (:mod:`repro.stale.model`), Monte Carlo
(:mod:`repro.stale.montecarlo`) and the full store simulator's oracle.

**E5.** The paper presents the behavior-modeling pipeline but defers its
evaluation to future work; this experiment supplies it: planted-phase trace
-> offline fit -> runtime :class:`~repro.behavior.manager.BehaviorPolicy`
replayed against the store, compared with every static policy on the
(staleness, cost) plane.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional

import numpy as np

from repro.common.errors import ConfigError
from repro.common.tables import Table
from repro.cluster.consistency import ConsistencyLevel
from repro.behavior.features import extract_features
from repro.behavior.manager import BehaviorModel, BehaviorPolicy
from repro.cost.billing import Biller
from repro.experiments.paper import ExperimentResult
from repro.experiments.platforms import (
    Platform,
    ec2_harmony_platform,
    grid5000_harmony_platform,
)
from repro.experiments.runner import static_factory
from repro.monitor.collector import ClusterMonitor
from repro.policy import StaticPolicy
from repro.stale.model import per_key_stale_probability
from repro.stale.montecarlo import MonteCarloStaleEstimator
from repro.workload.client import OpenLoopSource
from repro.workload.traces import PhasedTraceGenerator, TracePhase, replay_trace
from repro.workload.workloads import KeyRange, WorkloadSpec

__all__ = ["run_fig1_validation", "run_behavior_eval", "webshop_phases"]


# -------------------------------------------------------------------------- FIG1

#: FIG1's per-key write rates (/s) and read levels: the swept points.
WRITE_RATES = (2.0, 8.0, 32.0)
READ_LEVELS = (1, 2, 3)
#: Every write's level, and the per-key read rate (/s), at every point.
WRITE_LEVEL = 1
READ_RATE = 200.0
#: How long each point is simulated, in seconds, unless ``ops`` sets it.
HORIZON = 60.0


def _simulate_single_key(
    platform: Platform, write_rate: float, read_level: int, horizon: float, seed: int
) -> float:
    """Ground-truth staleness of a single hot key on the full simulator."""
    _, store = platform.build(seed=seed)
    rate = READ_RATE + write_rate
    spec = WorkloadSpec(
        name="single-key",
        read_proportion=READ_RATE / rate,
        update_proportion=write_rate / rate,
        record_count=1,
        distribution="uniform",
    )
    store.preload(KeyRange(1), store.default_value_size)
    source = OpenLoopSource(
        store,
        spec,
        StaticPolicy(read_level, WRITE_LEVEL),
        rate=rate,
        ops=int(rate * horizon),
        rng=np.random.default_rng(seed),
    )
    source.start()
    store.transport.run()
    return store.oracle.stale_rate


def run_fig1_validation(ops: Optional[int], seed: int) -> ExperimentResult:
    """Sweep (write rate, read level); return all three estimates per point.

    Each row, labelled ``"w={write_rate} r={read_level}"``, holds
    ``write_rate``, ``read_level``, the model's ``closed_form`` and
    ``monte_carlo`` estimates and the simulator oracle's ``stale_rate``.
    ``ops``, when given, sets the horizon to ``ops / READ_RATE`` seconds,
    else it is :data:`HORIZON`.
    """
    if ops is not None and ops < 1:
        raise ConfigError(f"ops must be >= 1, got {ops}")
    horizon = HORIZON if ops is None else ops / READ_RATE
    platform = grid5000_harmony_platform()
    rows: Dict[str, Dict[str, Any]] = {}
    rf = platform.rf

    for lam in WRITE_RATES:
        # Calibrate the model/MC inputs from the platform's own latency
        # structure by measuring one simulator run's ack profile.
        _, store = platform.build(seed=seed)
        monitor = ClusterMonitor(window=10.0)
        store.observe(monitor)
        store.preload(KeyRange(1), store.default_value_size)
        probe = OpenLoopSource(
            store,
            WorkloadSpec(
                name="probe", read_proportion=0.0, update_proportion=1.0,
                record_count=1, distribution="uniform",
            ),
            StaticPolicy(1, WRITE_LEVEL),
            rate=lam,
            ops=max(int(lam * 20.0), 50),
            rng=np.random.default_rng(seed + 1),
        )
        probe.start()
        store.transport.run()
        ranks = monitor.ack_rank_means(recent=False)
        while len(ranks) < rf:
            ranks.append(ranks[-1] if ranks else 0.001)
        t_commit = ranks[WRITE_LEVEL - 1]
        windows = [max(d - t_commit, 0.0) for d in ranks]

        def sampler(rng, n, ranks=tuple(ranks)):
            base = np.array(ranks)
            jitter = rng.exponential(np.maximum(base, 1e-6) * 0.3, size=(n, rf))
            return np.maximum(base + jitter - base * 0.3, 1e-6)

        for r in READ_LEVELS:
            cf = per_key_stale_probability(lam, r, WRITE_LEVEL, windows)
            mc = MonteCarloStaleEstimator(
                write_rate=lam, read_rate=READ_RATE, rf=rf,
                delay_sampler=sampler, rng=seed,
            ).estimate(r, WRITE_LEVEL, horizon=min(horizon * 4, 400.0))
            ss = _simulate_single_key(platform, lam, r, horizon, seed)
            rows[f"w={lam:g} r={r}"] = {
                "write_rate": lam,
                "read_level": r,
                "closed_form": cf,
                "monte_carlo": mc,
                "stale_rate": ss,
            }

    table = Table(
        "FIG1: stale-read probability -- closed form vs Monte Carlo vs simulator",
        ["write rate /s", "read level", "closed form", "monte carlo", "simulator"],
    )
    for row in rows.values():
        table.add_row(
            [
                row["write_rate"],
                row["read_level"],
                round(row["closed_form"], 4),
                round(row["monte_carlo"], 4),
                round(row["stale_rate"], 4),
            ]
        )
    return ExperimentResult(table, rows)


# -------------------------------------------------------------------------- E5

#: The webshop's keyspace, the training trace's phase cycles (the test
#: trace has one fewer) and the behavior model's window in seconds.
KEY_COUNT = 400
CYCLES = 3
WINDOW = 5.0


def webshop_phases() -> List[TracePhase]:
    """The motivating webshop timeline: browse / checkout rush / batch."""
    return [
        TracePhase(
            "browse", 60.0, rate=400.0, read_fraction=0.96,
            key_count=KEY_COUNT, hot_fraction=0.25, hot_weight=0.6,
        ),
        TracePhase(
            "checkout-rush", 30.0, rate=700.0, read_fraction=0.55,
            key_count=KEY_COUNT, hot_fraction=0.04, hot_weight=0.9,
        ),
        TracePhase(
            "batch-update", 30.0, rate=300.0, read_fraction=0.10,
            key_count=KEY_COUNT, hot_fraction=0.5, hot_weight=0.4,
        ),
    ]


def _behavior_result(rows: Dict[str, Dict[str, Any]]) -> ExperimentResult:
    """The E5 table over the policy rows; the title reads the ``behavior``
    row's ``clusters`` and ``phase_purity``."""
    behavior = rows["behavior"]
    table = Table(
        f"E5: behavior-modeled policy vs statics on a phased webshop trace "
        f"(clusters k={behavior['clusters']}, "
        f"phase purity {behavior['phase_purity']:.0%})",
        ["policy", "stale %", "$/kop", "read p99 ms"],
    )
    for name, row in rows.items():
        table.add_row(
            [
                name,
                round(row["stale_rate"] * 100.0, 2),
                round(row["cost_per_kop_usd"], 6),
                round(row["read_latency_p99_ms"], 2),
            ]
        )
    return ExperimentResult(table, rows)


def _replay_with_policy(
    platform: Platform, trace, policy_factory, seed: int
) -> Dict[str, Any]:
    """Replay the trace under a policy; return its stale / cost / p99 row."""
    _, store = platform.build(seed=seed)
    policy = policy_factory(store)
    store.preload(KeyRange(KEY_COUNT), store.default_value_size)
    biller = Biller(store, platform.prices, KEY_COUNT * store.default_value_size)
    replay_trace(store, trace, policy)
    store.transport.run()
    bill = biller.bill()
    return {
        "stale_rate": store.oracle.stale_rate,
        "cost_per_kop_usd": bill.cost_per_kop,
        "read_latency_p99_ms": store.read_latency.percentile(99) * 1e3,
    }


def run_behavior_eval(seed: int) -> ExperimentResult:
    """Fit the behavior model on one trace; evaluate policies on a fresh one.

    Each row is one policy's replay; the ``behavior`` row also carries the
    fitted model's cluster count (``clusters``) and the majority-phase
    purity of its training windows (``phase_purity``).
    """
    platform = ec2_harmony_platform()
    phases = webshop_phases()
    train = PhasedTraceGenerator(phases).generate(cycles=CYCLES, seed=seed)
    test = PhasedTraceGenerator(phases).generate(cycles=CYCLES - 1, seed=seed + 1)

    model = BehaviorModel.fit(train, window=WINDOW, k_range=(2, 3, 4, 5))

    # clustering quality: majority-phase purity of the training windows
    feats = extract_features(train, WINDOW)
    truth: List[str] = []
    for f in feats:
        phases_in = [
            rec.phase for rec in train if f.t_start <= rec.t < f.t_end
        ]
        truth.append(
            Counter(phases_in).most_common(1)[0][0] if phases_in else "idle"
        )
    per_cluster: Dict[int, Counter] = {}
    for lab, tr in zip(model.clustering.labels, truth):
        per_cluster.setdefault(int(lab), Counter())[tr] += 1
    purity = sum(c.most_common(1)[0][1] for c in per_cluster.values()) / len(truth)

    def behavior_factory(store):
        monitor = ClusterMonitor(window=WINDOW)
        store.observe(monitor)
        return BehaviorPolicy(
            model, monitor, rf=store.strategy.rf_total, update_interval=WINDOW / 2,
        )

    rows = {
        "behavior": {
            **_replay_with_policy(platform, test, behavior_factory, seed),
            "clusters": model.k,
            "phase_purity": purity,
        }
    }
    for name, level in (
        ("eventual", ConsistencyLevel.ONE),
        ("quorum", ConsistencyLevel.QUORUM),
        ("strong", ConsistencyLevel.ALL),
    ):
        rows[name] = _replay_with_policy(
            platform, test, static_factory(level, level, name=name), seed
        )
    return _behavior_result(rows)
