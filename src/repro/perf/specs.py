"""Declarative benchmark registry: named, parameterized perf targets.

A :class:`BenchSpec` names one measured code path -- the event engine, the
store's operation path, a full harness run -- with two parameter points:
``defaults`` (the full-size run CI trajectories are built from) and
``quick`` overrides (a seconds-scale variant for the CI gate and local
smoke runs). The registry mirrors :mod:`repro.experiments.scenarios`:
adding a benchmark is one :func:`register` call, no new script.

Every spec's ``fn`` receives the resolved parameter mapping (including
``seed``) and returns the number of *events* it processed -- operations,
simulator events, lookups, rows -- so the runner can report a
hardware-independent events-per-second figure next to raw wall-clock.

The built-in specs deliberately cover every layer the experiment harnesses
exercise (simcore, cluster, workload, experiments, txn, elastic), so a
regression anywhere in the stack moves at least one number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.common.errors import ConfigError

__all__ = ["BenchSpec", "REGISTRY", "register", "get", "names", "select"]

#: Resolved benchmark parameters, as passed to every spec ``fn``.
Params = Mapping[str, Any]


@dataclass(frozen=True)
class BenchSpec:
    """One named benchmark target.

    Attributes
    ----------
    name / description:
        Registry key and one-line summary (shown by ``repro bench --list``).
    fn:
        ``params -> events``: run the benchmark once at the resolved
        parameter point and return how many events it processed.
    defaults:
        Full-size parameters (the trajectory run).
    quick:
        Overrides applied on top of ``defaults`` in ``--quick`` mode.
    events_unit:
        What one event is ("ops", "events", "lookups", "rows", "txns").
    tags:
        Layer labels (``engine``, ``store``, ``workload``, ...).
    """

    name: str
    description: str
    fn: Callable[[Params], int]
    defaults: Mapping[str, Any] = field(default_factory=dict)
    quick: Mapping[str, Any] = field(default_factory=dict)
    events_unit: str = "ops"
    tags: Tuple[str, ...] = ()

    def resolve_params(self, seed: int, quick: bool = False) -> Dict[str, Any]:
        """Parameter point for one execution (``seed`` always included)."""
        params = dict(self.defaults)
        if quick:
            params.update(self.quick)
        params["seed"] = int(seed)
        return params


REGISTRY: Dict[str, BenchSpec] = {}


def register(spec: BenchSpec) -> BenchSpec:
    """Add a benchmark to the registry (names must be unique)."""
    if spec.name in REGISTRY:
        raise ConfigError(f"benchmark {spec.name!r} is already registered")
    REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> BenchSpec:
    """Look up a benchmark; unknown names list the alternatives."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown benchmark {name!r}; choose from {names()}"
        ) from None


def names() -> List[str]:
    """Registered benchmark names, sorted."""
    return sorted(REGISTRY)


def select(filters: Optional[List[str]] = None) -> List[BenchSpec]:
    """Benchmarks whose name or tags contain any of ``filters`` (all if empty).

    Matching is case-insensitive substring over the name and the tags, like
    pytest's ``-k``. An empty selection is a :class:`ConfigError` -- a typo
    must not silently gate nothing.
    """
    if not filters:
        return [REGISTRY[n] for n in names()]
    terms = [f.lower() for f in filters]
    out = []
    for name in names():
        spec = REGISTRY[name]
        haystack = [name.lower()] + [t.lower() for t in spec.tags]
        if any(term in hay for term in terms for hay in haystack):
            out.append(spec)
    if not out:
        raise ConfigError(
            f"no benchmark matches {filters}; choose from {names()}"
        )
    return out


# -- the built-in benchmarks ---------------------------------------------------
#
# Spec functions import the layers they exercise lazily, so listing the
# registry costs nothing and the perf package never creates import cycles.


def _bench_engine_events(p: Params) -> int:
    """Tight schedule/fire churn through the event heap (no cluster on top)."""
    from repro.simcore.simulator import Simulator

    sim = Simulator()
    total = int(p["events"])
    fanout = int(p["fanout"])

    def tick(depth: int) -> None:
        if depth <= 0:
            return
        for i in range(fanout):
            sim.schedule(0.001 * (i + 1), tick, depth - 1)

    # Seed enough independent chains that the heap stays a few thousand
    # events deep -- the regime every full-store run operates in.
    chains = 64
    depth = 6
    events_per_wave = chains * sum(fanout**d for d in range(1, depth + 1))
    waves = max(1, total // events_per_wave)
    for _ in range(waves):
        for _ in range(chains):
            sim.schedule(0.0, tick, depth)
        sim.run()
    return sim.events_processed


def _bench_engine_timeouts(p: Params) -> int:
    """The op+timeout pattern: most scheduled timeouts are cancelled, not fired."""
    from repro.simcore.simulator import Simulator

    sim = Simulator()
    pairs = int(p["pairs"])

    def op_done(timeout_event) -> None:
        timeout_event.cancel()

    def noop() -> None:
        return None

    # Stagger the op/timeout pairs so cancelled timeouts sit in the heap a
    # while before being skipped on pop -- the access pattern of per-round
    # protocol timers (the TM's prepare/retry timers; the store's own op
    # timeouts share one DeadlineQueue instead).
    for i in range(pairs):
        t = i * 0.001
        timeout = sim.schedule_at(t + 5.0, noop)
        sim.schedule_at(t + 0.0005, op_done, timeout)
    sim.run()
    return sim.events_processed


def _small_store(seed: int, nodes: int = 4):
    from repro.cluster.replication import SimpleStrategy
    from repro.cluster.store import ReplicatedStore, StoreConfig
    from repro.net.topology import Datacenter, Topology
    from repro.simcore.simulator import Simulator

    sim = Simulator()
    topo = Topology([Datacenter("dc0", "region0")], [nodes])
    store = ReplicatedStore(
        sim,
        topo,
        strategy=SimpleStrategy(rf=3),
        config=StoreConfig(seed=seed, read_repair_chance=0.1),
    )
    return store


def _bench_store_ops(p: Params) -> int:
    """The full single-DC data path: coordinator fan-out, service queues, acks."""
    from repro.policy import StaticPolicy
    from repro.workload.client import WorkloadRunner
    from repro.workload.workloads import WORKLOADS

    store = _small_store(int(p["seed"]))
    spec = WORKLOADS["A"].scaled(int(p["records"]), name="bench-a")
    report = WorkloadRunner(
        store,
        spec,
        policy=StaticPolicy(1, 2, name="bench"),
        n_clients=int(p["clients"]),
        ops_total=int(p["ops"]),
        seed=int(p["seed"]),
    ).run()
    return int(report.ops_completed)


def _bench_workload_harmony(p: Params) -> int:
    """End-to-end geo-replicated harness run with the adaptive policy on."""
    from repro.experiments.platforms import ec2_harmony_platform
    from repro.experiments.runner import harmony_factory
    from repro.facade import RunSpec, run

    outcome = run(
        RunSpec(
            platform=ec2_harmony_platform(),
            policy=harmony_factory(0.4),
            ops=int(p["ops"]),
            seed=int(p["seed"]),
        )
    )
    return int(outcome.report.ops_completed)


def _bench_openloop_schedule(p: Params) -> int:
    """Open-loop arrival scheduling: the Poisson pre-schedule of N arrivals."""
    from repro.common.rng import RngFactory
    from repro.policy import StaticPolicy
    from repro.workload.client import OpenLoopSource
    from repro.workload.workloads import WORKLOADS

    store = _small_store(int(p["seed"]))
    spec = WORKLOADS["A"].scaled(1000, name="bench-openloop")
    source = OpenLoopSource(
        store,
        spec,
        StaticPolicy(1, 1, name="bench"),
        rate=float(p["rate"]),
        ops=int(p["ops"]),
        rng=RngFactory(int(p["seed"])).stream("bench.openloop"),
    )
    source.start()
    return int(store.sim.pending())


def _bench_ring_churn(p: Params) -> int:
    """Live membership: incremental ring surgery + exact ownership diffs."""
    from repro.cluster.ring import TokenRing

    ring = TokenRing(int(p["nodes"]), vnodes=int(p["vnodes"]))
    changes = int(p["changes"])
    next_id = int(p["nodes"])
    for i in range(changes):
        if i % 2 == 0:
            ring.add_node(next_id)
            next_id += 1
        else:
            ring.remove_node(ring.members[0])
        ring.ownership_fractions()
    return changes


def _bench_replica_lookup(p: Params) -> int:
    """Ownership lookups on the store: the per-operation placement resolve."""
    store = _small_store(int(p["seed"]))
    keys = [f"user{i}" for i in range(int(p["keys"]))]
    store.preload(keys)
    lookups = int(p["lookups"])
    n = len(keys)
    for i in range(lookups):
        store.replica_sets(keys[i % n])
    return lookups


def _bench_sweep_aggregate(p: Params) -> int:
    """Sweep row aggregation: canonical sort, table render, JSON + CSV emit."""
    from repro.experiments.sweep import SweepResult

    rows = []
    for i in range(int(p["rows"])):
        rows.append(
            {
                "scenario": f"synthetic-{i % 7}",
                "params": {"tolerance": (i % 5) / 10.0, "index": i},
                "seed": 1000 + i,
                "policy": "harmony(0.4)",
                "workload": "heavy-read-update",
                "ops_completed": 4000 + i,
                "duration_s": 1.25,
                "throughput_ops_s": 3200.0 + i,
                "read_latency_mean_ms": 1.5,
                "read_latency_p99_ms": 9.0,
                "write_latency_mean_ms": 1.1,
                "write_latency_p99_ms": 7.5,
                "stale_rate": 0.01 * (i % 9),
                "stale_rate_strict": 0.012 * (i % 9),
                "cost_total_usd": 0.5,
                "cost_per_kop_usd": 0.000125,
                "read_levels": {"n=1": 2000, "n=2": 2000 + i},
                "level_fractions": {"1": 0.5, "2": 0.5},
            }
        )
    result = SweepResult(root_seed=int(p["seed"]), rows=rows)
    result.rows.sort(key=lambda r: (r["scenario"], r["seed"]))
    text = result.table().render() + result.to_json() + result.to_csv()
    return len(rows) + (0 if text else 1)


def _bench_txn_2pc(p: Params) -> int:
    """Atomic bank transfers under 2PC over two EC2 AZs."""
    from repro.experiments.platforms import ec2_harmony_platform
    from repro.experiments.runner import named_policy_factory
    from repro.facade import RunSpec, run
    from repro.workload.workloads import bank_transfer_mix

    outcome = run(
        RunSpec(
            platform=ec2_harmony_platform(),
            policy=named_policy_factory("quorum"),
            txn_workload=bank_transfer_mix(record_count=int(p["records"])),
            ops=int(p["txns"]),
            clients=int(p["clients"]),
            seed=int(p["seed"]),
        )
    )
    return int(outcome.report.txn["txns"])


def _bench_txn_protocol(p: Params) -> int:
    """Commit-protocol machinery under a rolling crash storm: termination
    rounds, pre-commit barriers and WAL recovery re-drives, not just the
    happy commit path."""
    from repro.cluster.failures import FailureInjector
    from repro.experiments.platforms import storm_txn_platform
    from repro.experiments.runner import named_policy_factory
    from repro.facade import RunSpec, run
    from repro.txn.api import TxnConfig
    from repro.workload.workloads import read_modify_write_mix

    def storm(injector: FailureInjector) -> None:
        injector.crash_storm([0, 2, 5, 7], start=0.5, interval=0.5, downtime=1.5)

    outcome = run(
        RunSpec(
            platform=storm_txn_platform(),
            policy=named_policy_factory("quorum"),
            txn_workload=read_modify_write_mix(record_count=int(p["records"])),
            ops=int(p["txns"]),
            clients=int(p["clients"]),
            seed=int(p["seed"]),
            failure_script=storm,
            txn_config=TxnConfig(
                prepare_timeout=0.5,
                client_timeout=2.0,
                retry_interval=0.25,
                status_interval=0.1,
                status_backoff=2.0,
                status_interval_max=0.5,
                termination_after=2,
                termination_timeout=0.25,
            ),
            commit_protocol=str(p["protocol"]),
        )
    )
    return int(outcome.report.txn["txns"])


def _bench_cohort_million(p: Params) -> int:
    """Cohort-mode runner at the scale ceiling: 10^6 clients, one pooled
    generator per DC, paced aggregate arrivals through the full data path."""
    from repro.policy import StaticPolicy
    from repro.workload.client import WorkloadRunner
    from repro.workload.workloads import WORKLOADS

    store = _small_store(int(p["seed"]))
    spec = WORKLOADS["A"].scaled(int(p["records"]), name="bench-cohort")
    report = WorkloadRunner(
        store,
        spec,
        policy=StaticPolicy(1, 2, name="bench"),
        n_clients=int(p["clients"]),
        ops_total=int(p["ops"]),
        seed=int(p["seed"]),
        target_throughput=float(p["rate"]),
        client_mode="cohort",
    ).run()
    return int(report.ops_completed)


def _bench_cohort_geo_scenario(p: Params) -> int:
    """End-to-end geo cohort scenario: Harmony adapting under 10^6 clients."""
    from repro.experiments import scenarios

    run = scenarios.get("harmony-geo-cohort").run(
        seed=int(p["seed"]), ops=int(p["ops"])
    )
    return int(run.report.ops_completed)


def _bench_obs_overhead(p: Params) -> int:
    """The harness run with full observability on: sampler ticks, every-op
    listener accounting, trace span construction, and the streaming anomaly
    oracles (on by default in ObsConfig, so the per-tick invariant checks and
    per-read monotonicity sampling are inside the measured region). In-memory
    only (no artifact writes), so the number isolates the recording overhead
    itself."""
    from repro.experiments.platforms import ec2_harmony_platform
    from repro.experiments.runner import harmony_factory
    from repro.facade import RunSpec, run
    from repro.obs.recorder import ObsConfig

    outcome = run(
        RunSpec(
            platform=ec2_harmony_platform(),
            policy=harmony_factory(0.4),
            ops=int(p["ops"]),
            seed=int(p["seed"]),
            obs=ObsConfig(
                sample_interval=0.05, trace=True, trace_sample_every=4
            ),
        )
    )
    return int(outcome.report.ops_completed)


def _bench_elastic_rebalance(p: Params) -> int:
    """Membership churn under load: streaming rebalance + live traffic."""
    from repro.experiments import scenarios

    run = scenarios.get("elastic-rebalance-storm").run(
        seed=int(p["seed"]), ops=int(p["ops"])
    )
    return int(run.report.ops_completed)


register(
    BenchSpec(
        name="engine-events",
        description="Event-heap churn: schedule/fire fan-out chains in simcore",
        fn=_bench_engine_events,
        defaults={"events": 400_000, "fanout": 2},
        quick={"events": 80_000},
        events_unit="events",
        tags=("simcore", "engine"),
    )
)

register(
    BenchSpec(
        name="engine-timeouts",
        description="Lazy-cancel path: op+timeout pairs where timeouts rarely fire",
        fn=_bench_engine_timeouts,
        defaults={"pairs": 150_000},
        quick={"pairs": 30_000},
        events_unit="events",
        tags=("simcore", "engine"),
    )
)

register(
    BenchSpec(
        name="store-ops",
        description="Single-DC read/write data path at static consistency",
        fn=_bench_store_ops,
        defaults={"ops": 24_000, "clients": 16, "records": 800},
        quick={"ops": 5_000},
        events_unit="ops",
        tags=("cluster", "store", "workload"),
    )
)

register(
    BenchSpec(
        name="workload-harmony-geo",
        description="Full geo-replicated harness run with Harmony adapting",
        fn=_bench_workload_harmony,
        defaults={"ops": 12_000},
        quick={"ops": 2_500},
        events_unit="ops",
        tags=("workload", "harmony", "experiments"),
    )
)

register(
    BenchSpec(
        name="openloop-schedule",
        description="Poisson pre-scheduling of open-loop arrivals (RNG + heap)",
        fn=_bench_openloop_schedule,
        defaults={"ops": 400_000, "rate": 2_000.0},
        quick={"ops": 80_000},
        events_unit="arrivals",
        tags=("workload", "rng"),
    )
)

register(
    BenchSpec(
        name="ring-churn",
        description="Incremental ring membership with exact ownership diffs",
        fn=_bench_ring_churn,
        defaults={"nodes": 24, "vnodes": 32, "changes": 240},
        quick={"changes": 60},
        events_unit="events",
        tags=("cluster", "ring", "elastic"),
    )
)

register(
    BenchSpec(
        name="replica-lookup",
        description="Per-operation replica-set resolution on a live store",
        fn=_bench_replica_lookup,
        defaults={"keys": 2_000, "lookups": 400_000},
        quick={"lookups": 80_000},
        events_unit="lookups",
        tags=("cluster", "store"),
    )
)

register(
    BenchSpec(
        name="sweep-aggregate",
        description="Sweep result aggregation: sort, render, JSON + CSV",
        fn=_bench_sweep_aggregate,
        defaults={"rows": 6_000},
        quick={"rows": 1_200},
        events_unit="rows",
        tags=("experiments", "sweep"),
    )
)

register(
    BenchSpec(
        name="txn-2pc",
        description="Atomic bank transfers: 2PC commit path over two AZs",
        fn=_bench_txn_2pc,
        defaults={"txns": 1_500, "clients": 12, "records": 1_000},
        quick={"txns": 400},
        events_unit="txns",
        tags=("txn",),
    )
)

register(
    BenchSpec(
        name="txn-protocol",
        description="Commit-protocol storm: 3PC + termination paths under rolling crashes",
        fn=_bench_txn_protocol,
        defaults={"txns": 1_200, "clients": 12, "records": 400, "protocol": "3pc"},
        quick={"txns": 400},
        events_unit="txns",
        tags=("txn", "protocol"),
    )
)

register(
    BenchSpec(
        name="cohort-million-clients",
        description="Cohort engine at the 10^6-client scale ceiling (paced, 1 DC)",
        fn=_bench_cohort_million,
        defaults={"ops": 20_000, "clients": 1_000_000, "records": 800, "rate": 8_000.0},
        quick={"ops": 4_000},
        events_unit="ops",
        tags=("workload", "cohort", "scale"),
    )
)

register(
    BenchSpec(
        name="cohort-geo-scenario",
        description="Geo cohort scenario end-to-end: Harmony + 10^6 clients",
        fn=_bench_cohort_geo_scenario,
        defaults={"ops": 12_000},
        quick={"ops": 2_500},
        events_unit="ops",
        tags=("workload", "cohort", "experiments", "harmony"),
    )
)

register(
    BenchSpec(
        name="obs-overhead",
        description="Geo harness run with tracing, dense sampling and anomaly oracles attached",
        fn=_bench_obs_overhead,
        defaults={"ops": 12_000},
        quick={"ops": 2_500},
        events_unit="ops",
        tags=("obs", "workload", "harmony"),
    )
)

register(
    BenchSpec(
        name="elastic-rebalance",
        description="Streaming rebalance storm under foreground traffic",
        fn=_bench_elastic_rebalance,
        defaults={"ops": 5_000},
        quick={"ops": 1_500},
        events_unit="ops",
        tags=("elastic",),
    )
)
