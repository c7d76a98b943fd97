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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.tables import Table
from repro.cluster.consistency import ConsistencyLevel
from repro.behavior.features import extract_features
from repro.behavior.manager import BehaviorModel, BehaviorPolicy
from repro.cost.billing import Biller
from repro.experiments.platforms import Platform
from repro.experiments.runner import static_factory
from repro.monitor.collector import ClusterMonitor
from repro.policy import StaticPolicy
from repro.stale.model import per_key_stale_probability
from repro.stale.montecarlo import MonteCarloStaleEstimator
from repro.workload.client import OpenLoopSource
from repro.workload.traces import PhasedTraceGenerator, TracePhase, replay_trace
from repro.workload.workloads import KeyRange, WorkloadSpec

__all__ = [
    "Fig1Row",
    "run_fig1_validation",
    "fig1_table",
    "BehaviorEvalResult",
    "run_behavior_eval",
    "webshop_phases",
]


# -------------------------------------------------------------------------- FIG1


@dataclass(frozen=True)
class Fig1Row:
    """One sweep point: the three estimates side by side."""

    write_rate: float
    read_level: int
    closed_form: float
    monte_carlo: float
    simulator: float


def _simulate_single_key(
    platform: Platform,
    write_rate: float,
    read_rate: float,
    read_level: int,
    write_level: int,
    horizon: float,
    seed: int,
) -> float:
    """Ground-truth staleness of a single hot key on the full simulator."""
    _, store = platform.build(seed=seed)
    spec = WorkloadSpec(
        name="single-key",
        read_proportion=read_rate / (read_rate + write_rate),
        update_proportion=write_rate / (read_rate + write_rate),
        record_count=1,
        distribution="uniform",
    )
    store.preload(KeyRange(1), spec.value_size)
    source = OpenLoopSource(
        store,
        spec,
        StaticPolicy(read_level, write_level),
        rate=read_rate + write_rate,
        ops=int((read_rate + write_rate) * horizon),
        rng=np.random.default_rng(seed),
    )
    source.start()
    store.transport.run()
    return store.oracle.stale_rate


def run_fig1_validation(
    platform: Platform,
    write_rates: Sequence[float] = (2.0, 8.0, 32.0),
    read_levels: Sequence[int] = (1, 2, 3),
    write_level: int = 1,
    read_rate: float = 200.0,
    horizon: float = 60.0,
    seed: int = 5,
    ops: Optional[int] = None,
) -> List[Fig1Row]:
    """Sweep (write rate, read level); return all three estimates per point.

    ``ops``, when given, sets ``horizon`` to ``ops / read_rate``.
    """
    if ops is not None:
        horizon = ops / read_rate
    rows: List[Fig1Row] = []
    rf = platform.rf

    for lam in write_rates:
        # Calibrate the model/MC inputs from the platform's own latency
        # structure by measuring one simulator run's ack profile.
        _, store = platform.build(seed=seed)
        monitor = ClusterMonitor(window=10.0)
        store.add_listener(monitor)
        store.preload(KeyRange(1), store.default_value_size)
        probe = OpenLoopSource(
            store,
            WorkloadSpec(
                name="probe", read_proportion=0.0, update_proportion=1.0,
                record_count=1, distribution="uniform",
            ),
            StaticPolicy(1, write_level),
            rate=lam,
            ops=max(int(lam * 20.0), 50),
            rng=np.random.default_rng(seed + 1),
        )
        probe.start()
        store.transport.run()
        ranks = monitor.ack_rank_means(recent=False)
        while len(ranks) < rf:
            ranks.append(ranks[-1] if ranks else 0.001)
        t_commit = ranks[write_level - 1]
        windows = [max(d - t_commit, 0.0) for d in ranks]

        def sampler(rng, n, ranks=tuple(ranks)):
            base = np.array(ranks)
            jitter = rng.exponential(np.maximum(base, 1e-6) * 0.3, size=(n, rf))
            return np.maximum(base + jitter - base * 0.3, 1e-6)

        for r in read_levels:
            cf = per_key_stale_probability(lam, r, write_level, windows)
            mc = MonteCarloStaleEstimator(
                write_rate=lam, read_rate=read_rate, rf=rf,
                delay_sampler=sampler, rng=seed,
            ).estimate(r, write_level, horizon=min(horizon * 4, 400.0))
            ss = _simulate_single_key(
                platform, lam, read_rate, r, write_level, horizon, seed
            )
            rows.append(
                Fig1Row(
                    write_rate=lam,
                    read_level=r,
                    closed_form=cf,
                    monte_carlo=mc,
                    simulator=ss,
                )
            )
    return rows


def fig1_table(rows: Sequence[Fig1Row]) -> Table:
    """Render the FIG1 sweep."""
    t = Table(
        "FIG1: stale-read probability -- closed form vs Monte Carlo vs simulator",
        ["write rate /s", "read level", "closed form", "monte carlo", "simulator"],
    )
    for row in rows:
        t.add_row(
            [
                row.write_rate,
                row.read_level,
                round(row.closed_form, 4),
                round(row.monte_carlo, 4),
                round(row.simulator, 4),
            ]
        )
    return t


# -------------------------------------------------------------------------- E5


def webshop_phases(key_count: int = 400) -> List[TracePhase]:
    """The motivating webshop timeline: browse / checkout rush / batch."""
    return [
        TracePhase(
            "browse", 60.0, rate=400.0, read_fraction=0.96,
            key_count=key_count, hot_fraction=0.25, hot_weight=0.6,
        ),
        TracePhase(
            "checkout-rush", 30.0, rate=700.0, read_fraction=0.55,
            key_count=key_count, hot_fraction=0.04, hot_weight=0.9,
        ),
        TracePhase(
            "batch-update", 30.0, rate=300.0, read_fraction=0.10,
            key_count=key_count, hot_fraction=0.5, hot_weight=0.4,
        ),
    ]


@dataclass
class BehaviorEvalResult:
    """Clustering quality plus the policy comparison on the phased trace."""

    purity: float
    k: int
    rows: Dict[str, Tuple[float, float, float]]  # policy -> (stale, $/kop, p99 ms)

    def table(self) -> Table:
        """The E5 comparison table."""
        t = Table(
            f"E5: behavior-modeled policy vs statics on a phased webshop trace "
            f"(clusters k={self.k}, phase purity {self.purity:.0%})",
            ["policy", "stale %", "$/kop", "read p99 ms"],
        )
        for name, (stale, kop, p99) in self.rows.items():
            t.add_row([name, round(stale * 100.0, 2), round(kop, 6), round(p99, 2)])
        return t


def _replay_with_policy(
    platform: Platform,
    trace,
    policy_factory,
    key_count: int,
    seed: int,
) -> Tuple[float, float, float]:
    """Replay the trace under a policy; return (stale, $/kop, p99 ms)."""
    _, store = platform.build(seed=seed)
    policy = policy_factory(store)
    store.preload(KeyRange(key_count), store.default_value_size)
    biller = Biller(store, platform.prices, key_count * store.default_value_size)
    replay_trace(store, trace, policy)
    store.transport.run()
    bill = biller.bill()
    return (
        store.oracle.stale_rate,
        bill.cost_per_kop,
        store.read_latency.percentile(99) * 1e3,
    )


def run_behavior_eval(
    platform: Platform,
    cycles: int = 3,
    key_count: int = 400,
    window: float = 5.0,
    seed: int = 7,
) -> BehaviorEvalResult:
    """Fit the behavior model on one trace; evaluate policies on a fresh one."""
    phases = webshop_phases(key_count)
    train = PhasedTraceGenerator(phases).generate(cycles=cycles, seed=seed)
    test = PhasedTraceGenerator(phases).generate(cycles=max(cycles - 1, 1), seed=seed + 1)

    model = BehaviorModel.fit(train, window=window, k_range=(2, 3, 4, 5))

    # clustering quality: majority-phase purity of the training windows
    feats = extract_features(train, window)
    idx = 0
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
        monitor = ClusterMonitor(window=window)
        store.add_listener(monitor)
        return BehaviorPolicy(
            model, monitor, rf=store.strategy.rf_total, update_interval=window / 2,
        )

    rows: Dict[str, Tuple[float, float, float]] = {}
    rows["behavior"] = _replay_with_policy(
        platform, test, behavior_factory, key_count, seed
    )
    for name, level in (
        ("eventual", ConsistencyLevel.ONE),
        ("quorum", ConsistencyLevel.QUORUM),
        ("strong", ConsistencyLevel.ALL),
    ):
        rows[name] = _replay_with_policy(
            platform,
            test,
            static_factory(level, level, name=name),
            key_count,
            seed,
        )
    return BehaviorEvalResult(purity=purity, k=model.k, rows=rows)
