"""One front door for every experiment run: ``repro.run(RunSpec)``.

:class:`RunSpec` is one keyword-only declarative description of a run,
and :func:`run` executes it. The ``backend`` field picks the execution
engine:

- ``backend="sim"`` (default): the deterministic discrete-event
  simulator. Bit-for-bit reproducible; this is what every result table
  in the repository is built from. Every sim run -- plain, transactional
  or elastic -- goes through the *one* deploy-run-bill pipeline in
  :func:`_run_sim`; the *shape* of the spec (which of ``workload`` /
  ``txn_workload`` / ``elastic`` is set) only switches optional steps of
  that pipeline on, and the result is always one
  :class:`~repro.experiments.runner.RunOutcome`.
- ``backend="asyncio"``: the localhost runtime
  (:mod:`repro.runtime.localhost`) -- the *same* transaction-protocol
  classes on real asyncio timers, a JSON wire codec and file-backed
  WALs. Wall-clock, hence not deterministic; supported for
  transactional workloads, and cross-validated against the simulator by
  ``repro xval`` (:mod:`repro.runtime.xval`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

from repro.cluster.failures import FailureInjector
from repro.common.errors import ConfigError
from repro.cost.billing import Biller
from repro.elastic.autoscale import CostAwareAutoscaler
from repro.elastic.cluster import ElasticCluster
from repro.elastic.runner import ElasticSpec, _elastic_block, _repace
from repro.experiments.platforms import Platform
from repro.experiments.runner import FailureScript, PolicyFactory, RunOutcome
from repro.monitor.collector import ClusterMonitor
from repro.obs.recorder import ObsConfig, RunObserver
from repro.runtime import BACKENDS
from repro.txn.api import TransactionalStore, TxnConfig
from repro.txn.runner import TxnRunner
from repro.workload.client import WorkloadRunner
from repro.workload.workloads import TxnWorkloadSpec, WorkloadSpec, heavy_read_update

if TYPE_CHECKING:  # localhost imports are deferred (they pull asyncio/tempfile)
    from repro.runtime.localhost import LocalhostSpec

__all__ = ["RunSpec", "LocalhostRunOutcome", "AnyRunOutcome", "run"]


@dataclass
class LocalhostRunOutcome:
    """What one asyncio-backend run produced.

    The localhost runtime reports the protocol surface (the
    ``txn_summary()`` block, oracle staleness, WAL directory) rather
    than a billed :class:`~repro.workload.client.RunReport` -- wall-clock
    runs are not priced, and single-op latency modelling is sim-only.
    """

    #: the raw result dict from :func:`repro.runtime.localhost.run_localhost`.
    result: Dict[str, Any]
    #: the fully resolved spec the run executed (auto-derived or explicit).
    spec: "LocalhostSpec"

    @property
    def txn(self) -> Dict[str, Any]:
        """The transaction summary block (commit/abort counts, latency)."""
        return self.result["txn"]

    @property
    def stale_rate(self) -> float:
        return float(self.result["stale_rate"])

    @property
    def timed_out(self) -> bool:
        """True if the wall-clock guard expired before all txns finished."""
        return bool(self.result["timed_out"])


AnyRunOutcome = Union[RunOutcome, LocalhostRunOutcome]


@dataclass(kw_only=True)
class RunSpec:
    """Declarative description of one experiment run (all fields keyword-only).

    Exactly one workload shape applies: ``elastic`` (with an optional
    plain ``workload``), ``txn_workload``, or plain ``workload`` /
    defaults. ``txn_config`` / ``commit_protocol`` only make sense with
    a transactional workload and are rejected otherwise.

    Attributes
    ----------
    platform:
        Deployment preset (topology, replica placement, prices, default
        scale) -- see :mod:`repro.experiments.platforms`.
    policy:
        Policy factory ``(store) -> ConsistencyPolicy``; it may attach
        monitors to the freshly built store before returning.
    workload / txn_workload / elastic:
        The run's shape (see above). ``elastic`` carries the membership
        script / autoscaler / pacing schedule.
    ops:
        Total operations (plain/elastic) or transactions (txn);
        ``None`` uses the platform default.
    backend:
        ``"sim"`` (deterministic, default) or ``"asyncio"`` (localhost
        runtime; transactional only).
    localhost:
        Optional explicit :class:`~repro.runtime.localhost.LocalhostSpec`
        for the asyncio backend. When ``None`` one is derived from
        ``platform`` + ``txn_workload`` (topology and RF verbatim;
        keyspace skew approximated as a hotspot mix).
    """

    platform: Platform
    policy: PolicyFactory
    workload: Optional[WorkloadSpec] = None
    txn_workload: Optional[TxnWorkloadSpec] = None
    elastic: Optional[ElasticSpec] = None
    ops: Optional[int] = None
    clients: Optional[int] = None
    seed: int = 11
    warmup_fraction: float = 0.2
    target_throughput: Optional[float] = None
    failure_script: Optional[FailureScript] = None
    client_mode: str = "per_client"
    txn_config: Optional[TxnConfig] = None
    commit_protocol: Optional[str] = None
    obs: Optional[ObsConfig] = None
    backend: str = "sim"
    localhost: Optional["LocalhostSpec"] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigError(
                f"backend must be one of {list(BACKENDS)}, got {self.backend!r}"
            )
        if self.client_mode not in ("per_client", "cohort"):
            raise ConfigError(
                f"client_mode must be 'per_client' or 'cohort', "
                f"got {self.client_mode!r}"
            )
        if self.elastic is not None and self.txn_workload is not None:
            raise ConfigError(
                "a run is elastic or transactional, not both: "
                "set only one of elastic / txn_workload"
            )
        if self.txn_workload is None and (
            self.txn_config is not None or self.commit_protocol is not None
        ):
            raise ConfigError(
                "txn_config / commit_protocol require a txn_workload"
            )
        if self.backend == "asyncio":
            if self.txn_workload is None and self.localhost is None:
                raise ConfigError(
                    "the asyncio backend runs transactional workloads only: "
                    "set txn_workload (or an explicit localhost spec)"
                )
            if self.elastic is not None:
                raise ConfigError("elasticity is sim-only; use backend='sim'")
            if self.obs is not None:
                raise ConfigError(
                    "run observability is sim-only; use backend='sim'"
                )
            if self.failure_script is not None:
                raise ConfigError(
                    "failure scripts are sim-only; script crashes via "
                    "LocalhostSpec.crashes on the asyncio backend"
                )
            if self.target_throughput is not None:
                raise ConfigError(
                    "the asyncio backend is closed-loop; "
                    "target_throughput is sim-only"
                )


def _hotspot_shape(w: TxnWorkloadSpec) -> Tuple[int, float]:
    """Map a txn workload's key distribution onto the localhost hotspot dial.

    The localhost driver samples keys from a two-level hotspot mix
    (``hot_fraction`` of draws over the first ``hot_keys`` keys); this
    translates the declared distribution into that shape -- exact for
    ``uniform`` and ``hotspot``, an explicit approximation for the
    skewed families (zipfian/latest/exponential), whose head mass is
    modelled as a 5%-of-keyspace hot set taking half the draws.
    """
    if w.distribution == "uniform":
        return 0, 0.0
    if w.distribution == "hotspot":
        kw = w.distribution_kwargs
        hot_set = float(kw.get("hot_set_fraction", 0.2))
        hot_opn = float(kw.get("hot_opn_fraction", 0.8))
        return max(1, int(w.record_count * hot_set)), hot_opn
    return max(1, int(w.record_count * 0.05)), 0.5


def _derive_localhost_spec(spec: RunSpec) -> "LocalhostSpec":
    """Build the asyncio run's :class:`LocalhostSpec` from the sim-style spec."""
    from repro.runtime.localhost import LocalhostSpec

    w = spec.txn_workload
    topology = spec.platform.topology_factory()
    config = spec.txn_config or TxnConfig()
    if spec.commit_protocol is not None:
        config = replace(config, commit_protocol=str(spec.commit_protocol))
    hot_keys, hot_fraction = _hotspot_shape(w)
    return LocalhostSpec(
        topology=topology,
        replication_factor=min(spec.platform.rf, topology.n_nodes),
        # Platform defaults are sized for the simulator (tens of
        # thousands of ops in virtual time); a wall-clock run defaults
        # to a smoke-sized workload unless the caller asks for more.
        txns=spec.ops if spec.ops is not None else 50,
        clients=(
            spec.clients
            if spec.clients is not None
            else min(spec.platform.default_clients, 8)
        ),
        writes_per_txn=max(len(w.write_slots), 1),
        reads_per_txn=len(w.read_slots),
        n_keys=w.record_count,
        hot_keys=hot_keys,
        hot_fraction=hot_fraction,
        value_size=w.value_size,
        seed=spec.seed,
        txn_config=config,
    )


def _run_asyncio(spec: RunSpec) -> LocalhostRunOutcome:
    from repro.runtime.localhost import run_localhost

    lspec = spec.localhost if spec.localhost is not None else _derive_localhost_spec(spec)
    return LocalhostRunOutcome(result=run_localhost(lspec), spec=lspec)


def _run_sim(spec: RunSpec) -> RunOutcome:
    """The deploy-run-bill pipeline every simulated run goes through.

    One linear sequence; the transactional, elastic and observer steps run
    only when the spec asks for them (the first two are mutually
    exclusive). Store listeners register, RNG streams are named and
    timers are armed in exactly this order, so do not reorder steps: the
    golden-report tests pin the result. ``docs/ARCHITECTURE.md`` ("The run
    facade") walks through the steps.
    """
    platform, seed, elastic = spec.platform, spec.seed, spec.elastic
    sim, store = platform.build(seed=seed)
    policy = spec.policy(store)

    tstore: Optional[TransactionalStore] = None
    if spec.txn_workload is not None:
        txn_config = spec.txn_config
        if spec.commit_protocol is not None:
            txn_config = replace(
                txn_config or TxnConfig(), commit_protocol=str(spec.commit_protocol)
            )
        tstore = TransactionalStore(store, policy=policy, config=txn_config)

    cluster: Optional[ElasticCluster] = None
    autoscaler: Optional[CostAwareAutoscaler] = None
    if elastic is not None:
        cluster = ElasticCluster(store, rebalance=elastic.rebalance)
        if elastic.autoscaler is not None:
            monitor = ClusterMonitor(window=2.0)
            store.add_listener(monitor)
            autoscaler = CostAwareAutoscaler(
                cluster, monitor, platform.prices, elastic.autoscaler
            )
            autoscaler.start()
        if elastic.script is not None:
            elastic.script(cluster)

    workload = spec.txn_workload if tstore is not None else spec.workload
    if workload is None:
        workload = heavy_read_update(record_count=platform.default_record_count)
    biller = Biller(store, platform.prices, workload.data_size_bytes())
    if spec.failure_script is not None:
        # before the workload starts: script times are relative to run start
        spec.failure_script(FailureInjector(store))
    observer: Optional[RunObserver] = None
    if spec.obs is not None:
        observer = RunObserver(store, spec.obs, policy=policy, run_meta={"seed": seed})
        if tstore is not None:
            tstore.obs = observer

    driver = dict(
        n_clients=spec.clients if spec.clients is not None else platform.default_clients,
        seed=seed,
        warmup_fraction=spec.warmup_fraction,
        target_throughput=spec.target_throughput,
        biller=biller,
    )
    runner: Union[TxnRunner, WorkloadRunner]
    if tstore is not None:
        runner = TxnRunner(
            tstore,
            workload,
            txns_total=(
                spec.ops if spec.ops is not None else max(platform.default_ops // 10, 100)
            ),
            **driver,
        )
    else:
        runner = WorkloadRunner(
            store,
            workload,
            policy=policy,
            ops_total=spec.ops if spec.ops is not None else platform.default_ops,
            client_mode=spec.client_mode,
            **driver,
        )
    if elastic is not None:
        for t, rate in elastic.pacing_schedule:
            store.transport.post_at(t, _repace, runner, float(rate))
    report = runner.run()
    # The bill covers the measurement window the report covers; the elastic
    # drain below moves the clock (and streams bytes) past it.
    bill = biller.bill()

    if cluster is not None:
        if autoscaler is not None:
            autoscaler.stop()
        # Let in-flight migrations finish (bounded): the workload window just
        # ended first; the hand-off's in-flight-write gate in particular needs
        # one more pump tick after the last write settles.
        tr = store.transport
        deadline = tr.now + 5.0
        while cluster.rebalancer.active and tr.now < deadline:
            sim.run(until=min(tr.now + 0.05, deadline))
        report.elastic = _elastic_block(cluster, autoscaler)
    if observer is not None:
        observer.finish()
    return RunOutcome(
        report=report,
        bill=bill,
        policy=policy,
        store=store,
        obs=observer,
        tstore=tstore,
        cluster=cluster,
        autoscaler=autoscaler,
    )


def run(spec: RunSpec) -> AnyRunOutcome:
    """Execute one run described by ``spec`` and return its outcome.

    ``backend="asyncio"`` routes to the localhost runtime and returns a
    :class:`LocalhostRunOutcome`. The sim backend returns one
    :class:`~repro.experiments.runner.RunOutcome` whatever the workload
    shape: ``tstore`` is set for a transactional run (and ``report.txn``
    filled), ``cluster`` / ``autoscaler`` for an elastic one (and
    ``report.elastic`` filled), all three ``None`` for a plain run.

    >>> from repro.experiments import single_dc_platform, harmony_factory
    >>> from repro.facade import RunSpec, run
    >>> out = run(RunSpec(platform=single_dc_platform(),
    ...                   policy=harmony_factory(0.05), ops=400))
    >>> out.report.ops_completed  # the measured window: ops minus warmup
    320
    """
    if spec.backend == "asyncio":
        return _run_asyncio(spec)
    return _run_sim(spec)
