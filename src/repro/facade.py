"""One front door for every experiment run: ``repro.run(RunSpec)``.

:class:`RunSpec` is one keyword-only declarative description of a run,
and :func:`run` executes it. Every run -- plain, transactional or elastic,
on either engine -- goes through the *one* deploy-run-bill pipeline in
:func:`_pipeline`; the *shape* of the spec (which of ``workload`` /
``txn_workload`` / ``elastic`` is set) only switches optional steps of
that pipeline on, and the result is always one
:class:`~repro.experiments.runner.RunOutcome`. The ``backend`` field
picks the engine the pipeline's store runs on:

- ``backend="sim"`` (default): the deterministic discrete-event
  simulator. Bit-for-bit reproducible; this is what every result table
  in the repository is built from.
- ``backend="asyncio"``: real asyncio timers, a JSON wire codec and
  file-backed WALs (:func:`repro.runtime.localhost.run_asyncio` sets them
  up and tears them down). Wall-clock, hence not deterministic, and
  cross-validated against the simulator by ``repro xval``
  (:mod:`repro.runtime.xval`). Elastic runs are sim-only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional

from repro.cluster.failures import FailureInjector
from repro.common.errors import ConfigError
from repro.cost.billing import Biller
from repro.elastic.autoscale import CostAwareAutoscaler
from repro.elastic.rebalance import StreamingRebalancer
from repro.elastic.runner import ElasticSpec, _elastic_block, _repace
from repro.experiments.platforms import Platform
from repro.experiments.runner import FailureScript, PolicyFactory, RunOutcome
from repro.monitor.collector import ClusterMonitor
from repro.obs.recorder import ObsConfig, RunObserver
from repro.net.topology import Topology
from repro.runtime import BACKENDS, SimTransport, Transport
from repro.txn.api import TransactionalStore, TxnConfig
from repro.txn.runner import TxnRunner
from repro.txn.wal import WriteAheadLog
from repro.workload.client import WorkloadRunner
from repro.workload.workloads import TxnWorkloadSpec, WorkloadSpec, heavy_read_update

if TYPE_CHECKING:  # localhost imports are deferred (they pull asyncio/tempfile)
    from repro.runtime.localhost import LocalhostSpec

__all__ = ["RunSpec", "run"]


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
        ``"sim"`` (deterministic, default) or ``"asyncio"`` (the wall
        clock; not elastic). Both run the same pipeline; an asyncio run
        applies no warmup window, ends at the ``localhost`` wall guard and
        defaults to 50 operations or transactions over at most 8 clients.
    localhost:
        The wall-clock knobs of an asyncio run
        (:class:`~repro.runtime.localhost.LocalhostSpec`: time scale, wall
        guard, WAL directory); ``None`` takes their defaults.
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
        if self.backend == "asyncio" and self.elastic is not None:
            raise ConfigError("elasticity is sim-only; use backend='sim'")


def _pipeline(
    spec: RunSpec,
    transport: Callable[[Topology], Transport] = SimTransport,
    wal_factory: Optional[Callable[[int], WriteAheadLog]] = None,
    max_time: float = 3600.0,
) -> RunOutcome:
    """The deploy-run-bill pipeline every run goes through, on either engine.

    One linear sequence; the transactional, elastic and observer steps run
    only when the spec asks for them (the first two are mutually
    exclusive). Store observers register, RNG streams are named and
    timers are armed in exactly this order, so do not reorder steps: the
    golden-report tests pin the result. ``docs/ARCHITECTURE.md`` ("The run
    facade") walks through the steps. The engine supplies the store's
    ``transport``, the participants' ``wal_factory`` (``None``: in-memory
    logs) and the runners' ``max_time`` guard.
    """
    platform, seed, elastic = spec.platform, spec.seed, spec.elastic
    _, store = platform.build(seed, transport)
    policy = spec.policy(store)

    tstore: Optional[TransactionalStore] = None
    if spec.txn_workload is not None:
        txn_config = spec.txn_config
        if spec.commit_protocol is not None:
            txn_config = replace(
                txn_config or TxnConfig(), commit_protocol=str(spec.commit_protocol)
            )
        tstore = TransactionalStore(
            store, policy=policy, config=txn_config, wal_factory=wal_factory
        )

    rebalancer: Optional[StreamingRebalancer] = None
    autoscaler: Optional[CostAwareAutoscaler] = None
    if elastic is not None:
        rebalancer = StreamingRebalancer(store, elastic.rebalance)
        if elastic.autoscaler is not None:
            monitor = ClusterMonitor(window=2.0)
            store.observe(monitor)
            autoscaler = CostAwareAutoscaler(
                rebalancer, monitor, platform.prices, elastic.autoscaler
            )
            autoscaler.start()
        if elastic.script is not None:
            elastic.script(rebalancer)

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
        max_time=max_time,
        biller=biller,
    )
    runner: WorkloadRunner
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

    if rebalancer is not None:
        if autoscaler is not None:
            autoscaler.stop()
        # Let in-flight migrations finish (bounded): the workload window just
        # ended first; the hand-off's in-flight-write gate in particular needs
        # one more pump tick after the last write settles.
        tr = store.transport
        deadline = tr.now + 5.0
        while rebalancer.active and tr.now < deadline:
            tr.run(until=min(tr.now + 0.05, deadline))
        report.elastic = _elastic_block(rebalancer, autoscaler)
    if observer is not None:
        observer.finish()
    return RunOutcome(
        report=report,
        bill=bill,
        policy=policy,
        store=store,
        obs=observer,
        tstore=tstore,
        rebalancer=rebalancer,
        autoscaler=autoscaler,
        timed_out=runner.timed_out,
    )


def run(spec: RunSpec) -> RunOutcome:
    """Execute one run described by ``spec`` and return its outcome.

    Every run returns one :class:`~repro.experiments.runner.RunOutcome`
    whatever the engine or workload shape: ``tstore`` is set for a
    transactional run (and ``report.txn`` filled), ``rebalancer`` /
    ``autoscaler`` for an elastic one (and ``report.elastic`` filled), all
    three ``None`` for a plain run. Both backends run the same pipeline
    on the platform's store -- policy, bill and observer included;
    ``backend="asyncio"`` puts it on the asyncio transport
    (:func:`repro.runtime.localhost.run_asyncio`).

    >>> from repro.experiments import single_dc_platform, harmony_factory
    >>> from repro.facade import RunSpec, run
    >>> out = run(RunSpec(platform=single_dc_platform(),
    ...                   policy=harmony_factory(0.05), ops=400))
    >>> out.report.ops_completed  # the measured window: ops minus warmup
    320
    """
    if spec.backend == "asyncio":
        from repro.runtime.localhost import run_asyncio

        return run_asyncio(spec)
    return _pipeline(spec)
