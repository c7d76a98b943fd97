"""Declarative scenario registry: named workload x topology x policy recipes.

A :class:`ScenarioSpec` names one parameterized run: its ``build`` maps the
resolved parameters to one :class:`~repro.facade.RunSpec`, which composes
the experiment axes --

- a *platform* (topology + replica placement + price book),
- a *workload* (mix, skew, population; transactional or elastic shapes),
- a *consistency policy* (static, Harmony, Bismar, baselines),
- an optional *failure script* (crashes/partitions on the run's clock)

-- and :meth:`ScenarioSpec.run` executes it through :func:`repro.run`,
returning the one :class:`~repro.experiments.runner.RunOutcome`.
Parameters declared in ``defaults`` are sweepable: the sweep runner
expands ``--grid`` values over them and ``build`` receives the resolved
parameter mapping.

The module-level :data:`REGISTRY` is pre-populated with a diverse set of
scenarios (single-DC control, geo-replication, flash crowd, diurnal
traffic, failure storms, hot-key skew, cost-capped Bismar, and a
Harmony-vs-static shootout). Adding a scenario is a :func:`register` call
whose ``build`` writes one ``RunSpec(...)`` -- no new script needed.

Examples
--------
>>> from repro.experiments import scenarios
>>> spec = scenarios.get("geo-replication")
>>> sorted(spec.defaults)
['tolerance']
>>> run_spec = spec.build(spec.resolve_params({"tolerance": 0.1}))
>>> run_spec.ops, run_spec.clients, run_spec.workload.name
(4000, 16, 'heavy-read-update')
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.common.errors import ConfigError
from repro.cluster.failures import FailureInjector
from repro.cost.pricing import EC2_US_EAST_2013
from repro.elastic.autoscale import AutoscalerConfig
from repro.elastic.cluster import ElasticCluster
from repro.elastic.rebalance import RebalanceConfig
from repro.elastic.runner import ElasticSpec
from repro.experiments.platforms import (
    ec2_harmony_platform,
    grid5000_bismar_platform,
    grid5000_harmony_platform,
    single_dc_platform,
    small_dc_platform,
    storm_txn_platform,
)
from repro.experiments.runner import (
    PolicyFactory,
    RunOutcome,
    bismar_factory,
    harmony_factory,
    named_policy_factory,
)
from repro.facade import RunSpec, run
from repro.obs.recorder import ObsConfig
from repro.obs.slo import SLOSpec
from repro.txn.api import TxnConfig
from repro.workload.workloads import (
    WORKLOADS,
    WorkloadSpec,
    bank_transfer_mix,
    flash_crowd,
    heavy_read_update,
    order_checkout_mix,
    read_modify_write_mix,
    read_mostly_latest,
)

__all__ = [
    "ScenarioSpec",
    "REGISTRY",
    "register",
    "get",
    "names",
]

#: Resolved sweep parameters, as passed to every scenario's ``build``.
Params = Mapping[str, Any]


@dataclass(frozen=True)
class ScenarioSpec:
    """One named experiment recipe with sweepable parameters.

    Attributes
    ----------
    name / description:
        Registry key and one-line summary (shown by ``repro scenarios``).
    build:
        ``params -> RunSpec``: the whole run at the resolved parameters
        (platform, policy, workload shape, failure script, pacing, scale
        and client mode). :meth:`run` overrides only its seed, ``ops``,
        client mode, observer and backend.
    defaults:
        The sweepable parameters and their default values. Grid overrides
        for keys *not* listed here are ignored for this scenario (so one
        grid can sweep a heterogeneous scenario set).
    slo:
        Declarative service-level objectives for this scenario
        (:class:`~repro.obs.slo.SLOSpec`). Stamped into every observed
        run's timeline header (``meta_slo``) so ``repro report --slo``
        can grade artifacts without the registry; ``None`` = no SLO.
    oracle_overrides:
        Per-scenario anomaly-oracle budget overrides
        (:class:`~repro.obs.oracles.OracleConfig` field name -> value),
        merged into whatever :class:`ObsConfig` the caller passes. A
        scenario that grades a dwell-based SLO calibrates the dwell
        budget here so the budget travels with the scenario, not with
        each invocation.
    """

    name: str
    description: str
    build: Callable[[Params], RunSpec]
    defaults: Mapping[str, Any] = field(default_factory=dict)
    slo: Optional[SLOSpec] = None
    oracle_overrides: Mapping[str, Any] = field(default_factory=dict)
    tags: Tuple[str, ...] = ()

    def resolve_params(self, overrides: Optional[Params] = None) -> Dict[str, Any]:
        """Defaults merged with the overrides this scenario declares.

        Unknown override keys are dropped, not rejected: a sweep grid is
        applied across all registered scenarios at once, and each scenario
        picks out the axes it declares in ``defaults``.
        """
        params = dict(self.defaults)
        for key, value in (overrides or {}).items():
            if key in params:
                params[key] = value
        return params

    def run(
        self,
        seed: int = 11,
        overrides: Optional[Params] = None,
        ops: Optional[int] = None,
        client_mode: Optional[str] = None,
        obs: Optional[ObsConfig] = None,
        backend: Optional[str] = None,
    ) -> RunOutcome:
        """Execute one deployment of this scenario and return its outcome.

        ``ops``, ``client_mode`` and ``backend`` replace the built spec's
        values when given (``client_mode`` is the ``repro sweep
        --client-mode`` path; transactional runs ignore it; ``"asyncio"``
        runs every scenario but the elastic ones on the wall clock).
        ``obs`` attaches a run observer (timeline + trace), with this
        scenario's ``oracle_overrides`` merged in; observability never
        changes the run's results, only records them.
        """
        if obs is not None and self.oracle_overrides:
            obs = replace(
                obs,
                oracle_config=replace(
                    obs.oracle_config, **dict(self.oracle_overrides)
                ),
            )
        given = {"ops": ops, "client_mode": client_mode, "backend": backend}
        spec = replace(
            self.build(self.resolve_params(overrides)),
            seed=seed,
            obs=obs,
            **{k: v for k, v in given.items() if v is not None},
        )
        outcome = run(spec)
        if outcome.obs is not None:
            # Stamp scenario identity, cost and the SLO into the timeline
            # header so artifacts are self-contained for `report --slo`.
            outcome.obs.run_meta["scenario"] = self.name
            outcome.obs.run_meta["cost_total_usd"] = float(outcome.bill.total)
            if self.slo is not None:
                outcome.obs.run_meta["slo"] = self.slo.to_dict()
            if outcome.obs.config.out_dir is not None:
                # the observer already wrote at finish(); rewrite with the
                # enriched header (deterministic, same records)
                outcome.obs.write(outcome.obs.config.out_dir)
        return outcome


# -- registry -----------------------------------------------------------------

REGISTRY: Dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a scenario to the registry (names must be unique)."""
    if spec.name in REGISTRY:
        raise ConfigError(f"scenario {spec.name!r} is already registered")
    REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ScenarioSpec:
    """Look up a scenario; unknown names list the alternatives."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; choose from {names()}"
        ) from None


def names() -> List[str]:
    """Registered scenario names, sorted."""
    return sorted(REGISTRY)


# -- the built-in scenarios ----------------------------------------------------


def _harmony_policy(params: Params) -> PolicyFactory:
    return harmony_factory(float(params["tolerance"]))


def _shootout_policy(params: Params) -> PolicyFactory:
    return named_policy_factory(
        str(params["policy"]), tolerance=float(params.get("tolerance", 0.4))
    )


def _partition_script(injector: FailureInjector, params: Params) -> None:
    """Cut the WAN between the two paper DCs mid-run, then heal."""
    injector.partition(
        0,
        1,
        at=float(params["partition_start"]),
        duration=float(params["partition_duration"]),
    )


def _storm_script(injector: FailureInjector, params: Params) -> None:
    n_nodes = len(injector.store.nodes)
    count = min(int(params["crash_count"]), n_nodes - 1)
    # Spread the crashes evenly around the ring so every storm run hits the
    # same nodes at the same times regardless of sweep-process layout.
    node_ids = [(i * n_nodes) // count for i in range(count)]
    injector.crash_storm(
        node_ids,
        start=float(params.get("crash_start", 1.0)),
        interval=float(params["crash_interval"]),
        downtime=float(params["downtime"]),
    )


register(
    ScenarioSpec(
        name="single-dc-ycsb-a",
        description="Control case: YCSB-A on one LAN datacenter, Harmony adapting",
        build=lambda p: RunSpec(
            platform=single_dc_platform(),
            policy=_harmony_policy(p),
            workload=WORKLOADS["A"].scaled(800, name="ycsb-a"),
            ops=4000,
            clients=16,
        ),
        defaults={"tolerance": 0.3},
        # Generous objectives a healthy LAN control run always meets --
        # the CI obs-smoke job's known-clean `report --slo` gate.
        slo=SLOSpec(
            stale_rate_max=0.9,
            read_p99_ms_max=250.0,
            anomalies_max=20,
            error_budget=0.25,
        ),
        tags=("ycsb", "single-dc"),
    )
)

register(
    ScenarioSpec(
        name="geo-replication",
        description="Multi-DC Grid'5000 geo-replication under heavy read-update",
        build=lambda p: RunSpec(
            platform=grid5000_harmony_platform(),
            policy=_harmony_policy(p),
            workload=heavy_read_update(record_count=800),
            ops=4000,
            clients=16,
        ),
        defaults={"tolerance": 0.2},
        tags=("geo", "harmony"),
    )
)

register(
    ScenarioSpec(
        name="flash-crowd",
        description="Flash crowd: 95% of ops slam a 5% hot key set on EC2",
        build=lambda p: RunSpec(
            platform=ec2_harmony_platform(),
            policy=_harmony_policy(p),
            workload=flash_crowd(
                record_count=800, hot_set_fraction=float(p["hot_set_fraction"])
            ),
            ops=4000,
            clients=24,
        ),
        defaults={"tolerance": 0.4, "hot_set_fraction": 0.05},
        tags=("skew", "burst"),
    )
)

register(
    ScenarioSpec(
        name="diurnal-traffic",
        description="Diurnal feed traffic: read-mostly 'latest' mix paced off-peak",
        build=lambda p: RunSpec(
            platform=ec2_harmony_platform(),
            policy=_harmony_policy(p),
            workload=read_mostly_latest(record_count=800),
            target_throughput=float(p["offered_load"]),
            ops=4000,
            clients=16,
        ),
        defaults={"tolerance": 0.4, "offered_load": 600.0},
        tags=("paced", "reads"),
    )
)

register(
    ScenarioSpec(
        name="node-failure-storm",
        description="Rolling node crashes sweeping a Grid'5000 cluster mid-run",
        build=lambda p: RunSpec(
            platform=grid5000_harmony_platform(),
            policy=_harmony_policy(p),
            workload=heavy_read_update(record_count=800),
            failure_script=lambda injector: _storm_script(injector, p),
            ops=4000,
            clients=16,
        ),
        defaults={
            "tolerance": 0.2,
            "crash_count": 4,
            "crash_interval": 2.0,
            "downtime": 3.0,
        },
        tags=("failures",),
    )
)

register(
    ScenarioSpec(
        name="geo-partition-chaos",
        description="WAN partition splits the two EC2 AZs mid-run: quorum "
        "loss and staleness burst until the heal",
        # Paced load stretches the run horizon to ~ops/offered_load
        # simulated seconds, so the partition window (and its heal) lands
        # inside the run at the default scale.
        build=lambda p: RunSpec(
            platform=ec2_harmony_platform(),
            policy=_harmony_policy(p),
            workload=heavy_read_update(record_count=800),
            failure_script=lambda injector: _partition_script(injector, p),
            target_throughput=float(p["offered_load"]),
            ops=4000,
            clients=16,
        ),
        defaults={
            "tolerance": 0.2,
            "offered_load": 4000.0,
            "partition_start": 0.3,
            "partition_duration": 0.4,
        },
        # The 10+10-node split leaves no majority component for the whole
        # partition window, so the quorum-loss oracle must fire: gating on
        # oracle silence makes this the CI known-breaching scenario.
        slo=SLOSpec(anomalies_max=0, stale_rate_max=0.05, error_budget=0.05),
        tags=("chaos", "failures", "partition"),
    )
)

register(
    ScenarioSpec(
        name="hot-key-skew",
        description="Extreme zipfian-style hotspot contention on one datacenter",
        build=lambda p: RunSpec(
            platform=single_dc_platform(),
            policy=_harmony_policy(p),
            workload=WorkloadSpec(
                name="hot-key-skew",
                read_proportion=0.5,
                update_proportion=0.5,
                record_count=800,
                distribution="hotspot",
                distribution_kwargs={
                    "hot_set_fraction": 0.01,
                    "hot_opn_fraction": float(p["hot_opn_fraction"]),
                },
            ),
            ops=4000,
            clients=16,
        ),
        defaults={"tolerance": 0.3, "hot_opn_fraction": 0.9},
        tags=("skew",),
    )
)

register(
    ScenarioSpec(
        name="bismar-cost-capped",
        description="Bismar cost-optimizing consistency under a stale-rate cap",
        build=lambda p: RunSpec(
            platform=grid5000_bismar_platform(),
            policy=bismar_factory(EC2_US_EAST_2013, stale_cap=float(p["stale_cap"])),
            workload=heavy_read_update(record_count=120),
            ops=4000,
            clients=24,
        ),
        defaults={"stale_cap": 0.3},
        tags=("cost", "bismar"),
    )
)

register(
    ScenarioSpec(
        name="txn-shootout",
        description="Bank transfers under 2PC: sweep the read-level policy "
        "and watch stale reads turn into aborts",
        build=lambda p: RunSpec(
            platform=ec2_harmony_platform(),
            policy=_shootout_policy(p),
            # Tempered zipfian skew: at theta=0.99 the hottest accounts stay
            # prepare-locked continuously and lock conflicts drown the
            # staleness signal this scenario exists to measure.
            txn_workload=replace(
                bank_transfer_mix(record_count=2000),
                distribution_kwargs={"theta": float(p["theta"])},
            ),
            ops=1200,
            clients=12,
        ),
        defaults={"policy": "harmony", "tolerance": 0.4, "theta": 0.6},
        tags=("txn", "shootout"),
    )
)

#: Protocol tunables shared by the crash-storm and protocol-shootout
#: scenarios: short timeouts keep every blocking window inside the ~2s
#: runs, and the capped backoff bounds a blocked participant's poll
#: schedule (and therefore its worst-case termination latency): two
#: unanswered polls (<= 0.375s with full jitter) start the termination
#: round, whose reply window closes 0.25s later -- so a cooperative
#: participant is unblocked well inside ``_STORM_DWELL_BUDGET`` even
#: when a co-participant died with the TM, while blocking 2PC dwells
#: for the whole ``downtime`` (1.5s) until its TM returns.
def _storm_txn_config() -> TxnConfig:
    return TxnConfig(
        prepare_timeout=0.5,
        client_timeout=2.0,
        retry_interval=0.25,
        status_interval=0.1,
        status_backoff=2.0,
        status_interval_max=0.5,
        termination_after=2,
        termination_timeout=0.25,
    )


def _storm_txn_run(p: Params) -> RunSpec:
    """The read-modify-write crash storm both protocol scenarios run.

    The deliberately small two-site platform: with five coordinators per
    site the storm reliably crashes nodes that are acting as TM for
    in-flight commits, so the in-doubt/termination paths run on every
    seed (on the 84-node preset that is a rare coincidence).
    """
    return RunSpec(
        platform=storm_txn_platform(),
        policy=_harmony_policy(p),
        txn_workload=read_modify_write_mix(record_count=400),
        txn_config=_storm_txn_config(),
        commit_protocol=str(p["commit_protocol"]),
        failure_script=lambda injector: _storm_script(injector, p),
        ops=1200,
        clients=12,
    )


#: The dwell-oracle budget the storm SLOs grade against: above the
#: worst-case cooperative-termination latency (~0.65s), well below
#: blocking 2PC's TM-recovery dwell (the 1.5s storm downtime), so each
#: blocking catch contributes ~0.8s of overdue time and the 0.75s
#: ``blocked_txn_time_max`` separates the protocols with margin on
#: both sides.
_STORM_DWELL_BUDGET = 0.7


register(
    ScenarioSpec(
        name="txn-crash-storm",
        description="Atomic read-modify-writes while rolling crashes sweep "
        "the cluster: commit availability and in-doubt recovery",
        build=_storm_txn_run,
        # The storm rolls early and fast relative to the ~2s run, so every
        # crash and every recovery (with its in-doubt resolution) lands
        # inside the measured window. ``commit_protocol`` is a sweepable
        # axis: the CI shootout smoke runs all protocols through this one
        # storm and grades each against the blocked-time SLO below --
        # blocking 2PC (no termination) is the known-breaching gate, the
        # cooperative and non-blocking protocols must pass.
        defaults={
            "tolerance": 0.2,
            "commit_protocol": "2pc",
            "crash_start": 0.5,
            "crash_count": 4,
            "crash_interval": 0.5,
            "downtime": 1.5,
        },
        slo=SLOSpec(blocked_txn_time_max=0.75, abort_rate_max=0.9),
        oracle_overrides={"in_doubt_dwell": _STORM_DWELL_BUDGET},
        tags=("txn", "failures"),
    )
)

register(
    ScenarioSpec(
        name="txn-protocol-shootout",
        description="2PC vs cooperative termination vs 3PC through one "
        "identical crash storm: abort rate, blocked-participant time, and "
        "message cost per protocol",
        build=_storm_txn_run,
        # One parameter point per protocol, identical otherwise: sweeping
        # ``commit_protocol=2pc,2pc-coop,3pc`` drives each protocol through
        # the same parameter-scripted crash storm (same crash schedule,
        # same node set -- the storm is a pure function of the params, not
        # of the seed), so the per-protocol abort/blocked-time/message-cost
        # table isolates what the protocol itself costs and saves.
        defaults={
            "tolerance": 0.2,
            "commit_protocol": "2pc",
            "crash_start": 0.5,
            "crash_count": 4,
            "crash_interval": 0.5,
            "downtime": 1.5,
        },
        slo=SLOSpec(blocked_txn_time_max=0.75, abort_rate_max=0.9),
        oracle_overrides={"in_doubt_dwell": _STORM_DWELL_BUDGET},
        tags=("txn", "shootout", "protocol", "failures"),
    )
)

register(
    ScenarioSpec(
        name="txn-geo-2pc",
        description="Order checkouts committing over a WAN: geo-replicated "
        "2PC latency vs the consistency dial",
        build=lambda p: RunSpec(
            platform=grid5000_harmony_platform(),
            policy=_harmony_policy(p),
            # A wide, uniformly accessed catalog: the WAN round-trips, not
            # lock contention, should dominate what this scenario measures.
            txn_workload=replace(
                order_checkout_mix(record_count=800), distribution="uniform"
            ),
            ops=1200,
            clients=12,
        ),
        defaults={"tolerance": 0.2},
        tags=("txn", "geo"),
    )
)

# -- elastic scenarios: capacity changes mid-run ------------------------------

#: Fast streaming clocks: run horizons are fractions of a simulated second,
#: so migrations must pump and retry on the same footing.
_ELASTIC_STREAMING = RebalanceConfig(pump_interval=0.005, attempt_timeout=0.1)


def _autoscaler(p: Params, **overrides: Any) -> AutoscalerConfig:
    """Autoscaler tuned to the sub-second scenario horizons."""
    kwargs = dict(
        interval=0.02,
        consecutive=2,
        cooldown=0.08,
        scale_out_util=float(p.get("scale_out_util", 0.55)),
        scale_in_util=float(p.get("scale_in_util", 0.2)),
        queue_depth_high=3.0,
        max_nodes=24,
    )
    kwargs.update(overrides)
    return AutoscalerConfig(**kwargs)


def _diurnal_run(p: Params, clients: int, client_mode: str) -> RunSpec:
    """Off-peak -> peak -> off-peak offered load; the autoscaler follows."""
    peak = float(p["peak_load"])
    return RunSpec(
        platform=small_dc_platform(),
        policy=_harmony_policy(p),
        workload=read_mostly_latest(record_count=800),
        elastic=ElasticSpec(
            autoscaler=_autoscaler(p),
            rebalance=_ELASTIC_STREAMING,
            pacing_schedule=((0.3, peak), (1.3, peak / 5.0)),
        ),
        target_throughput=float(p["offered_load"]),
        ops=6000,
        clients=clients,
        client_mode=client_mode,
    )


def _churn_script(cluster: ElasticCluster, p: Params) -> None:
    """Rolling membership churn: two joins, then two drains, back to back."""
    tr = cluster.store.transport
    dt = float(p["churn_interval"])
    t = float(p.get("churn_start", 0.03))
    n_dcs = len(cluster.store.topology.datacenters)

    def drain() -> None:
        candidate = cluster.decommission_candidate()
        if candidate is not None:
            cluster.decommission_node(candidate)

    tr.post_at(t, cluster.bootstrap_node, 0)
    tr.post_at(t + dt, cluster.bootstrap_node, (1 % n_dcs))
    tr.post_at(t + 2 * dt, drain)
    tr.post_at(t + 3 * dt, drain)


register(
    ScenarioSpec(
        name="elastic-diurnal",
        description="Diurnal load ramp on a tight cluster: the autoscaler "
        "grows into the peak and shrinks after it",
        build=lambda p: _diurnal_run(p, clients=24, client_mode="per_client"),
        defaults={"tolerance": 0.4, "peak_load": 6000.0, "offered_load": 800.0},
        tags=("elastic", "paced"),
    )
)

register(
    ScenarioSpec(
        name="elastic-flash-crowd",
        description="Flash crowd slams an under-provisioned cluster: "
        "queue-depth-triggered scale-out under fire",
        build=lambda p: RunSpec(
            platform=small_dc_platform(),
            policy=_harmony_policy(p),
            workload=flash_crowd(
                record_count=800, hot_set_fraction=float(p["hot_set_fraction"])
            ),
            elastic=ElasticSpec(
                autoscaler=_autoscaler(p), rebalance=_ELASTIC_STREAMING
            ),
            ops=6000,
            clients=48,
        ),
        defaults={"tolerance": 0.4, "hot_set_fraction": 0.05},
        tags=("elastic", "burst"),
    )
)

register(
    ScenarioSpec(
        name="elastic-scale-in-cost",
        description="Over-provisioned EC2 cluster under light paced load: "
        "cost-aware scale-in walks the bill down",
        build=lambda p: RunSpec(
            platform=ec2_harmony_platform(),
            policy=_harmony_policy(p),
            workload=read_mostly_latest(record_count=800),
            elastic=ElasticSpec(
                autoscaler=_autoscaler(
                    p, interval=0.05, cooldown=0.1, min_nodes=int(p["min_nodes"])
                ),
                rebalance=_ELASTIC_STREAMING,
            ),
            target_throughput=float(p["offered_load"]),
            ops=3000,
            clients=16,
        ),
        defaults={"tolerance": 0.4, "offered_load": 1000.0, "min_nodes": 6},
        tags=("elastic", "cost"),
    )
)

register(
    ScenarioSpec(
        name="elastic-rebalance-storm",
        description="Back-to-back membership churn (joins and drains) while "
        "heavy read-update traffic keeps flowing",
        build=lambda p: RunSpec(
            platform=single_dc_platform(),
            policy=_harmony_policy(p),
            workload=heavy_read_update(record_count=800),
            elastic=ElasticSpec(
                script=lambda cluster: _churn_script(cluster, p),
                rebalance=_ELASTIC_STREAMING,
            ),
            ops=6000,
            clients=16,
        ),
        defaults={"tolerance": 0.3, "churn_interval": 0.06},
        tags=("elastic", "churn"),
    )
)


# -- cohort scenarios: millions of clients as pooled per-DC generators --------
#
# The cohort engine (repro.workload.cohort) makes the client count a free
# parameter: these variants run the geo-replication and elastic-diurnal
# recipes at 10^6 clients, which per-client mode cannot represent (10^6
# client objects).  Load is paced -- a million real clients each issue a
# trickle; the aggregate offered rate is what the deployment sees -- and
# the fidelity suite (tests/test_cohort_fidelity.py) is the evidence that
# cohort mode reproduces per-client metrics at equal scale.

register(
    ScenarioSpec(
        name="harmony-geo-cohort",
        description="Geo-replicated heavy read-update from a 10^6-client "
        "cohort per DC, Harmony adapting",
        build=lambda p: RunSpec(
            platform=grid5000_harmony_platform(),
            policy=_harmony_policy(p),
            workload=heavy_read_update(record_count=800),
            target_throughput=float(p["offered_load"]),
            ops=16000,
            clients=1_000_000,
            client_mode="cohort",
        ),
        defaults={"tolerance": 0.2, "offered_load": 8000.0},
        tags=("geo", "harmony", "cohort"),
    )
)

register(
    ScenarioSpec(
        name="elastic-diurnal-cohort",
        description="Diurnal ramp driven by a 10^6-client cohort: the "
        "autoscaler grows into the peak and shrinks after it",
        build=lambda p: _diurnal_run(p, clients=1_000_000, client_mode="cohort"),
        defaults={"tolerance": 0.4, "peak_load": 6000.0, "offered_load": 800.0},
        tags=("elastic", "paced", "cohort"),
    )
)


register(
    ScenarioSpec(
        name="harmony-vs-static",
        description="Shootout: sweep policy in {eventual, harmony, strong} on EC2",
        build=lambda p: RunSpec(
            platform=ec2_harmony_platform(),
            policy=_shootout_policy(p),
            workload=heavy_read_update(record_count=800),
            ops=4000,
            clients=16,
        ),
        defaults={"policy": "harmony", "tolerance": 0.4},
        tags=("shootout",),
    )
)
