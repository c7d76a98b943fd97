"""Workload clients and the end-to-end run orchestrator.

:func:`issue_op` is the one YCSB operation emitter: it samples the op,
picks the key (an insert takes the next key past the loaded range) and
sends a read, a write or a read-modify-write. Every generator calls it,
in two client shapes matching the two ways YCSB is run:

- :class:`ClosedLoopClient` -- one outstanding operation per client; the
  next operation is issued when the previous completes (optionally paced to
  a per-client target rate). Throughput then *depends on latency*, which is
  exactly how stronger consistency levels depress throughput in the paper's
  §IV-A numbers.
- :class:`OpenLoopSource` -- Poisson arrivals at a fixed offered rate,
  independent of completions (used by the staleness-model validation where
  the analytical model assumes Poisson reads/writes).

:class:`WorkloadRunner` deploys N clients against a store, runs the
simulation and returns a :class:`RunReport` with the throughput / latency /
staleness / traffic numbers every experiment consumes. It is the one run
driver: :class:`~repro.txn.runner.TxnRunner` subclasses it, overriding
only the client it builds, what counts toward warmup, the warmup reset and
the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import RngFactory, block_uniforms
from repro.cluster.coordinator import OpResult
from repro.cluster.store import ReplicatedStore, draw_coordinator
from repro.policy import ConsistencyPolicy, StaticPolicy
from repro.workload.workloads import KeyRange, WorkloadSpec

__all__ = [
    "issue_op",
    "ClosedLoopClient",
    "OpenLoopSource",
    "WorkloadRunner",
    "RunReport",
    "level_mix",
    "LevelUsage",
]


class LevelUsage:
    """Store listener counting operations per consistency-level label.

    Shared by the single-op and transactional runners -- the per-level
    read mix is how reports show what an adaptive policy actually did.
    """

    __slots__ = ("read_levels", "write_levels")

    def __init__(self) -> None:
        self.read_levels: Dict[str, int] = {}
        self.write_levels: Dict[str, int] = {}

    def on_op_complete(self, result: OpResult) -> None:
        table = self.read_levels if result.kind == "read" else self.write_levels
        table[result.level_label] = table.get(result.level_label, 0) + 1


def issue_op(src, done=None) -> None:
    """Sample one YCSB operation for ``src`` and send it to the store.

    ``src`` is any generator with the emitter's state: ``store``, ``spec``,
    ``policy``, ``uniforms``, ``chooser``, ``inserted`` and the
    ``_coordinator`` draw. Inserts take the next key past the loaded range;
    a read-modify-write reads the key, then writes it when the read
    returns. ``done(result)`` fires once per operation (after the write,
    for a read-modify-write).
    """
    store, spec, policy = src.store, src.spec, src.policy
    now = store.transport.now
    op = spec.sample_op(src.uniforms)
    if op == "insert":
        index = spec.record_count + src.inserted
        src.inserted += 1
        src.chooser.notify_insert(spec.record_count + src.inserted)
    else:
        index = src.chooser.next_index()
    key = spec.key_of(index)

    if op == "read":
        store.read(key, policy.read_level(now), done, coordinator=src._coordinator())
    elif op in ("update", "insert"):
        store.write(
            key, policy.write_level(now), done, coordinator=src._coordinator()
        )
    else:  # rmw: read, then write the same key (one op, two round-trips)

        def then_write(result: OpResult) -> None:
            store.write(
                key, policy.write_level(store.transport.now), done,
                coordinator=src._coordinator(),
            )

        store.read(
            key, policy.read_level(now), then_write, coordinator=src._coordinator()
        )


class ClosedLoopClient:
    """One-outstanding-op client bound to a coordinator datacenter.

    Parameters
    ----------
    store, spec, policy:
        The deployment, the workload mix, and the consistency policy.
    ops:
        Number of operations this client will issue.
    target_rate:
        Optional per-client pacing (ops/sec); ``None`` = as fast as
        completions allow.
    dc:
        Datacenter whose nodes this client uses as coordinators (clients are
        colocated with a datacenter, as YCSB clients are in the paper).
    """

    __slots__ = (
        "store",
        "spec",
        "policy",
        "remaining",
        "uniforms",
        "interval",
        "_deadline",
        "chooser",
        "inserted",
        "on_finished",
        "issued",
        "_coordinator",
    )

    #: Pacing weight relative to a single client (cohorts report their
    #: member count here); the elastic re-pacer splits total rate by it.
    weight = 1

    def __init__(
        self,
        store: ReplicatedStore,
        spec: WorkloadSpec,
        policy: ConsistencyPolicy,
        ops: int,
        rng: np.random.Generator,
        target_rate: Optional[float] = None,
        dc: Optional[int] = None,
        on_finished=None,
    ):
        if ops < 0:
            raise ConfigError(f"ops must be >= 0, got {ops}")
        self.store = store
        self.spec = spec
        self.policy = policy
        self.remaining = int(ops)
        self.uniforms = block_uniforms(rng)
        self.interval = 1.0 / target_rate if target_rate else 0.0
        self._deadline = 0.0
        self.chooser = spec.make_chooser(rng=self.uniforms)
        self.inserted = 0
        self.on_finished = on_finished
        self.issued = 0
        self._coordinator = partial(draw_coordinator, store, dc, self.uniforms)

    def start(self) -> None:
        """Begin issuing operations (call before the simulator runs)."""
        tr = self.store.transport
        self._deadline = tr.now
        if self.remaining == 0:
            self._finish()
            return
        tr.post_at(tr.now, self._issue_next)

    #: One issue, ``self._issue(done)``: a YCSB op by default; the
    #: transactional client overrides it with one whole transaction.
    _issue = issue_op

    # -- internals ---------------------------------------------------------------

    def _issue_next(self) -> None:
        if self.remaining <= 0:
            self._finish()
            return
        self.remaining -= 1
        self.issued += 1
        self._issue(self._op_done)

    def set_rate(self, target_rate: Optional[float]) -> None:
        """Re-pace this client mid-run (diurnal load shapes).

        The next operation honors the new rate; the pacing deadline is
        clamped to now so a rate drop never produces a catch-up burst.
        """
        self.interval = 1.0 / target_rate if target_rate else 0.0
        self._deadline = max(self._deadline, self.store.transport.now)

    def _op_done(self, result: OpResult) -> None:
        tr = self.store.transport
        now = tr.now
        delay = 0.0
        if self.interval > 0.0:
            self._deadline = max(now, self._deadline + self.interval)
            delay = self._deadline - now
        tr.post_at(now + delay, self._issue_next)

    def _finish(self) -> None:
        if self.on_finished is not None:
            cb, self.on_finished = self.on_finished, None
            cb(self)


class OpenLoopSource:
    """Poisson operation arrivals at a fixed offered rate.

    Unlike the closed-loop client, arrivals do not wait for completions, so
    the store can be driven into overload -- and the Poisson-arrivals
    assumption of the analytical staleness model holds by construction.
    """

    __slots__ = ("store", "spec", "policy", "rate", "remaining", "uniforms", "chooser",
                 "inserted", "_coordinator")

    def __init__(
        self,
        store: ReplicatedStore,
        spec: WorkloadSpec,
        policy: ConsistencyPolicy,
        rate: float,
        ops: int,
        rng: np.random.Generator,
    ):
        if rate <= 0:
            raise ConfigError(f"rate must be positive, got {rate}")
        if ops < 0:
            raise ConfigError(f"ops must be >= 0, got {ops}")
        self.store = store
        self.spec = spec
        self.policy = policy
        self.rate = float(rate)
        self.remaining = int(ops)
        self.uniforms = block_uniforms(rng)
        self.chooser = spec.make_chooser(rng=self.uniforms)
        self.inserted = 0
        self._coordinator = partial(draw_coordinator, store, None, self.uniforms)

    @property
    def rng(self) -> np.random.Generator:
        """The source's stream, handed back by its per-op block (exact)."""
        return self.uniforms.handback()

    def start(self) -> None:
        """Schedule all arrivals up front (exact Poisson process).

        The inter-arrival gaps are drawn as one vectorized batch: numpy's
        generators produce bit-identical doubles for ``exponential(s, n)``
        and ``n`` scalar calls, so batching changes nothing observable while
        removing ``n - 1`` generator round-trips from the schedule loop.
        """
        tr = self.store.transport
        post_at = tr.post_at
        issue = partial(issue_op, self)
        t = tr.now
        if self.remaining:
            for gap in self.rng.exponential(1.0 / self.rate, size=self.remaining):
                t += float(gap)
                post_at(t, issue)
        self.remaining = 0


@dataclass
class RunReport:
    """Results of one workload run (``RunOutcome.metrics()`` builds the row from it)."""

    policy: str
    workload: str
    ops_completed: int
    duration: float
    throughput: float
    read_latency_mean: float
    read_latency_p99: float
    write_latency_mean: float
    write_latency_p99: float
    stale_rate: float
    stale_rate_strict: float
    failures: Dict[str, int]
    billable_bytes: int
    total_bytes: int
    read_levels: Dict[str, int] = field(default_factory=dict)
    write_levels: Dict[str, int] = field(default_factory=dict)
    mean_propagation: float = 0.0
    #: transactional metrics (commit/abort/in-doubt counts, commit latency
    #: percentiles) when :class:`~repro.txn.runner.TxnRunner` drove the
    #: run; ``None`` for plain single-op runs. Such a report counts each
    #: decided transaction as one op and reads ``n_clients == 0``.
    txn: Optional[Dict[str, Any]] = None
    #: elasticity metrics (scale events, ranges moved, bytes streamed) when
    #: the run was driven by the elastic harness; ``None`` otherwise.
    elastic: Optional[Dict[str, Any]] = None
    #: how clients were modelled: ``per_client`` objects or pooled
    #: ``cohort`` generators (one per datacenter).
    client_mode: str = "per_client"
    #: how many clients the run stood in for (cohort members included).
    n_clients: int = 0
    #: aggregate per-cohort accounting blocks (cohort mode only).
    cohorts: Optional[List[Dict[str, Any]]] = None


def level_mix(read_levels: Dict[str, int]) -> str:
    """Compact ``label:share`` summary of the read levels a run used.

    Labels print most used first; equal counts keep ``read_levels``' order.
    """
    total = sum(read_levels.values()) or 1
    parts = [
        f"{label}:{100.0 * n / total:.0f}%"
        for label, n in sorted(read_levels.items(), key=lambda kv: -kv[1])
    ]
    return " ".join(parts)


class WorkloadRunner:
    """Deploy clients against a store, run to completion, report.

    Parameters
    ----------
    store:
        A freshly constructed deployment (the runner preloads it).
    spec:
        Workload mix.
    policy:
        Consistency policy shared by all clients (adaptive policies see the
        whole cluster through the monitor they were built with).
    n_clients:
        Client count.  In ``per_client`` mode every client is a
        :class:`ClosedLoopClient` object (spread round-robin over
        datacenters); in ``cohort`` mode the same population is pooled
        into one :class:`~repro.workload.cohort.CohortPopulation` per
        datacenter, which is what lets ``n_clients`` reach 10^6+.
    ops_total:
        Total operations across clients.
    target_throughput:
        Optional total offered rate cap (split evenly across clients).
    max_time:
        Simulated-seconds safety stop.
    client_mode:
        ``"per_client"`` (default) or ``"cohort"``.
    """

    def __init__(
        self,
        store: ReplicatedStore,
        spec: WorkloadSpec,
        policy: Optional[ConsistencyPolicy] = None,
        n_clients: int = 8,
        ops_total: int = 10_000,
        target_throughput: Optional[float] = None,
        max_time: float = 3600.0,
        seed: int = 7,
        warmup_fraction: float = 0.0,
        biller=None,
        client_mode: str = "per_client",
    ):
        if n_clients < 1:
            raise ConfigError(f"n_clients must be >= 1, got {n_clients}")
        if client_mode not in ("per_client", "cohort"):
            raise ConfigError(
                f"client_mode must be 'per_client' or 'cohort', got {client_mode!r}"
            )
        if client_mode == "per_client" and ops_total < n_clients:
            raise ConfigError("ops_total must be >= n_clients")
        if ops_total < 1:
            raise ConfigError(f"ops_total must be >= 1, got {ops_total}")
        self.client_mode = client_mode
        self.store = store
        self.spec = spec
        self.policy = policy or StaticPolicy(1, 1, name="one")
        self.n_clients = int(n_clients)
        self.ops_total = int(ops_total)
        self.target_throughput = target_throughput
        self.max_time = float(max_time)
        self.seed = int(seed)
        if not (0.0 <= warmup_fraction < 1.0):
            raise ConfigError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
            )
        self.warmup_fraction = float(warmup_fraction)
        #: optional repro.cost.Biller re-armed at the warmup boundary so the
        #: bill covers exactly the measurement phase.
        self.biller = biller
        self._usage = LevelUsage()
        self._finished_clients = 0
        self._units = 0
        self._t_last_op = 0.0
        self._warmup_remaining = int(self.ops_total * self.warmup_fraction)
        self._t_measure_start = 0.0
        #: set by :meth:`run`: the ``max_time`` guard ended the run first
        self.timed_out = False
        #: the live client units of the current run (populated by
        #: :meth:`run`): ClosedLoopClients in per-client mode, one
        #: CohortPopulation per datacenter in cohort mode.  The elastic
        #: harness re-paces them mid-run (weighted by ``.weight``).
        self.clients: List[Any] = []

    def run(self) -> RunReport:
        """Execute the workload and return the report."""
        store = self.store
        self._preload()
        store.observe(self._usage)
        if self._warmup_remaining > 0:
            store.observe(self)

        rngs = RngFactory(self.seed)
        n_dcs = len(store.topology.datacenters)
        t_start = store.transport.now
        clients = self.clients
        if self.client_mode == "cohort":
            self._start_cohorts(rngs, n_dcs)
        else:
            per_client = self.ops_total // self.n_clients
            extra = self.ops_total - per_client * self.n_clients
            rate = (
                self.target_throughput / self.n_clients
                if self.target_throughput
                else None
            )
            self._units = self.n_clients
            for i in range(self.n_clients):
                ops = per_client + (1 if i < extra else 0)
                client = self._new_client(i, ops, rngs, rate, dc=i % n_dcs)
                clients.append(client)
                client.start()

        store.transport.run(until=t_start + self.max_time)
        # Duration is measured from the end of warmup to the last client
        # completion, not to the safety horizon (background chatter may keep
        # the queue non-empty).
        self.timed_out = self._finished_clients < self._units
        t_end = store.transport.now if self.timed_out else self._t_last_op
        duration = max(t_end - max(t_start, self._t_measure_start), 1e-9)

        return self._report(duration)

    def _preload(self) -> None:
        """Load the spec's key range at the store's row size."""
        self.store.preload(KeyRange(self.spec.record_count))

    def _new_client(
        self, i: int, ops: int, rngs: RngFactory, rate: Optional[float], dc: int
    ) -> ClosedLoopClient:
        """Per-client mode's client ``i``, on its own RNG stream."""
        return ClosedLoopClient(
            self.store,
            self.spec,
            self.policy,
            ops=ops,
            rng=rngs.stream(f"client.{i}"),
            target_rate=rate,
            dc=dc,
            on_finished=self._client_finished,
        )

    def _report(self, duration: float) -> RunReport:
        """The measurement window's report (``duration`` simulated seconds)."""
        store = self.store
        ops = store.ops_completed()
        return RunReport(
            policy=self.policy.name,
            workload=self.spec.name,
            ops_completed=ops,
            duration=duration,
            throughput=ops / duration,
            read_latency_mean=store.read_latency.mean,
            read_latency_p99=store.read_latency.percentile(99),
            write_latency_mean=store.write_latency.mean,
            write_latency_p99=store.write_latency.percentile(99),
            stale_rate=store.oracle.stale_rate,
            stale_rate_strict=store.oracle.stale_rate_strict,
            failures=dict(store.failures),
            billable_bytes=store.network.traffic.billable_bytes(),
            total_bytes=store.network.traffic.total_bytes(),
            read_levels=dict(self._usage.read_levels),
            write_levels=dict(self._usage.write_levels),
            mean_propagation=store.oracle.mean_propagation_time(),
            client_mode=self.client_mode,
            n_clients=self.n_clients,
            cohorts=(
                [c.summary() for c in self.clients]
                if self.client_mode == "cohort"
                else None
            ),
        )

    def _start_cohorts(self, rngs: RngFactory, n_dcs: int) -> None:
        """Deploy one pooled cohort per datacenter.

        The ``n_clients`` population is split round-robin over datacenters
        exactly as per-client mode spreads client objects; operations and
        any offered-rate cap are split proportionally to cohort size
        (largest-remainder rounding keeps the totals exact).
        """
        from repro.workload.cohort import CohortPopulation

        n_units = min(n_dcs, self.n_clients)
        base, extra = divmod(self.n_clients, n_units)
        members = [base + (1 if i < extra else 0) for i in range(n_units)]
        ops = [self.ops_total * m // self.n_clients for m in members]
        for i in range(self.ops_total - sum(ops)):
            ops[i % n_units] += 1
        self._units = n_units
        for i in range(n_units):
            cohort = CohortPopulation(
                self.store,
                self.spec,
                self.policy,
                members=members[i],
                ops=ops[i],
                rng=rngs.stream(f"cohort.{i}"),
                arrival_rng=rngs.stream(f"cohort.{i}.arrivals"),
                target_rate=(
                    self.target_throughput * members[i] / self.n_clients
                    if self.target_throughput
                    else None
                ),
                dc=i,
                on_finished=self._client_finished,
            )
            self.clients.append(cohort)
            cohort.start()

    def on_op_complete(self, result: Any) -> None:
        """Warmup bookkeeping: reset all measurement state at the boundary."""
        if self._warmup_remaining <= 0:
            return
        self._warmup_remaining -= 1
        if self._warmup_remaining == 0:
            self._reset_metrics()
            self._usage.read_levels.clear()
            self._usage.write_levels.clear()
            self._t_measure_start = self.store.transport.now
            if self.biller is not None:
                self.biller.arm()

    def _reset_metrics(self) -> None:
        self.store.reset_metrics()

    def _client_finished(self, client) -> None:
        self._finished_clients += 1
        self._t_last_op = self.store.transport.now
        if self._finished_clients == self._units:
            # All workload ops done: stop simulating background chatter
            # (monitor ticks, repair sweeps) so runs end promptly.
            self.store.transport.stop()
