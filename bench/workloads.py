"""The seven benchmark workloads: inputs from a seed, one run, output checks.

Everything here drives the program from the outside: end-to-end paths use
only names in ``repro.__all__`` (plus ``ObsConfig``) and the ``repro`` CLI,
and read outcomes defensively, because later changes may merge the outcome
types and may not edit this directory. Sizes are frozen: a workload's
``size`` is its fixed input, so counts made by the program (events, calls,
messages) repeat exactly and the simulated statistics can be pinned.

Sizes target a timed region of about 2.5 s on the 2-core box the benchmark
was sized on, so that three fresh-process repeats plus their set-up fit the
driver's per-run budget (158 runs in 3420 s).
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import zlib
from typing import Any, Callable, Dict, List, Optional

import repro
from repro.obs import ObsConfig

#: divisor applied to every size by ``--smoke``
SMOKE_DIVISOR = 50
#: share of a workload's size run (untimed) before the timed region, on the
#: same keyspace, so per-key memo caches are as warm as on a second run
WARMUP_SHARE = 0.10

Facts = Dict[str, Any]


def crc32_of(value: Any) -> int:
    """crc32 of a canonical JSON rendering (dataclasses become dicts)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    text = json.dumps(value, sort_keys=True, default=str)
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


def _txn_block(outcome: Any) -> Optional[Dict[str, Any]]:
    """The transaction summary of an outcome, wherever this tree keeps it."""
    report = getattr(outcome, "report", None)
    txn = getattr(report, "txn", None)
    if txn is None:
        txn = getattr(outcome, "txn", None)
    return txn


class Nulls(dict):
    """``metric name -> reason`` for values that should exist but could not be read.

    A metric that simply is not defined on a workload (``txn.*`` without
    transactions) is left out of both the values and this map.
    """

    def take(self, out: Dict[str, float], name: str, fn: Callable[[], float]) -> None:
        """``out[name] = fn()``; on any failure record why instead.

        The boundary must keep running: a renamed attribute in a later
        tree may cost one layer counter, never an end-to-end run.
        """
        try:
            out[name] = float(fn())
        except Exception as exc:  # noqa: BLE001 - see docstring
            self[name] = f"{type(exc).__name__}: {exc}"


def _level_width(label: str, rf: int) -> int:
    """Replicas a read at ``label`` waits for (``n=2``, ``QUORUM``, ...)."""
    if label.startswith("n="):
        return int(label[2:])
    return {"ONE": 1, "TWO": 2, "THREE": 3, "QUORUM": rf // 2 + 1, "ALL": rf}[label]


def boundary_counts(outcome: Any, ops: int, nulls: Nulls) -> Dict[str, float]:
    """Counts read from the outcome's public counters, per requested op.

    Exact on simulator workloads (the run is deterministic and every spec
    here runs with ``warmup_fraction=0``, so the counters cover all ``ops``).
    """
    out: Dict[str, float] = {}
    report = getattr(outcome, "report", None)
    store = getattr(outcome, "store", None)
    if store is not None:
        wan = (repro.LinkClass.INTER_AZ, repro.LinkClass.INTER_REGION)

        def messages() -> Dict[Any, int]:
            return store.network.traffic.messages

        def replicas_per_read() -> float:
            rf = store.strategy.rf_total
            reads = sum(report.read_levels.values())
            return sum(_level_width(k, rf) * n for k, n in report.read_levels.items()) / reads

        nulls.take(out, "simcore.events_per_op", lambda: store.sim.events_processed / ops)
        nulls.take(out, "net.msgs_per_op", lambda: sum(messages().values()) / ops)
        nulls.take(out, "net.bytes_per_op", lambda: store.network.traffic.total_bytes() / ops)
        nulls.take(out, "net.wan_msg_share",
                   lambda: sum(messages()[c] for c in wan) / sum(messages().values()))
        nulls.take(out, "cluster.replicas_per_read", replicas_per_read)
        nulls.take(out, "cluster.repairs_per_kop", lambda: 1e3 * store.repairs_issued / ops)
    txn = _txn_block(outcome)
    if txn:
        nulls.take(out, "txn.msgs_per_txn", lambda: txn["msgs"] / txn["txns"])
        nulls.take(out, "txn.wal_records_per_txn", lambda: txn["wal_records"] / txn["txns"])
        nulls.take(out, "txn.abort_share", lambda: txn["abort_rate"])
        nulls.take(out, "txn.commit_p99_ms", lambda: txn["commit_latency_p99_ms"])
        nulls.take(out, "txn.recoveries", lambda: _recoveries(txn))
    return out


def _recoveries(txn: Dict[str, Any]) -> int:
    return (txn["in_doubt_recovered"] + txn["tm_recovery_resolved"]
            + txn["termination_resolved"])


def model_outputs(outcome: Any, nulls: Nulls) -> Dict[str, float]:
    """Simulated-time outputs: pinned (must repeat exactly), never ranked."""
    out: Dict[str, float] = {}
    report = getattr(outcome, "report", None)
    if report is None:  # a wall-clock run: nothing simulated to pin
        return out
    nulls.take(out, "model.stale_rate", lambda: report.stale_rate)
    nulls.take(out, "model.sim_throughput_ops_s", lambda: report.throughput)
    nulls.take(out, "model.read_p99_ms", lambda: 1e3 * report.read_latency_p99)
    nulls.take(out, "model.cost_per_kop_usd", lambda: outcome.bill.cost_per_kop)
    nulls.take(out, "model.report_crc32", lambda: crc32_of(report))
    return out


# -- workloads driven through repro.run() ---------------------------------------


@dataclasses.dataclass(frozen=True)
class RunWorkload:
    """One ``repro.run(RunSpec)`` call at a fixed size."""

    name: str
    size: int
    unit: str
    spec: Callable[[int, int, str], Any]
    check: Callable[[Any, Facts, bool], None]
    #: ``(seed, ops, tmp) -> outcome`` of the same run with the layer under
    #: test switched off, whose report must be byte-equal
    twin: Optional[Callable[[int, int, str], Any]] = None
    #: False on a wall clock: then no count or output repeats exactly
    deterministic: bool = True
    #: the timed call runs in this process, so the traced run repeats it
    timed_in_process = True

    def prepare(self) -> None:
        """Nothing beyond the spec: inputs come from (seed, size)."""

    def run(self, seed: int, ops: int, tmp: str) -> Any:
        return repro.run(self.spec(seed, ops, tmp))

    def in_process(self, seed: int, ops: int, tmp: str) -> int:
        """The call the traced run profiles; returns the ops it was asked for."""
        self.run(seed, ops, tmp)
        return ops

    def facts(self, outcome: Any, ops: int, smoke: bool) -> Facts:
        nulls = Nulls()
        facts: Facts = {"requested": ops, "attempted": ops, "problems": [], "info": {}}
        txn = _txn_block(outcome)
        report = getattr(outcome, "report", None)
        if txn:
            # a decided transaction (commit or abort) completed; one the
            # protocol never decided is the failure
            done = int(txn["txns"])
            facts["failed"] = ops - done
            if done > ops:
                facts["problems"].append(f"{done} txns decided of {ops} requested")
        else:
            done = int(report.ops_completed)
            facts["failed"] = sum(report.failures.values())
            if done + facts["failed"] != ops:
                facts["problems"].append(
                    f"completed {done} + failed {facts['failed']} != requested {ops}")
        facts["model"] = model_outputs(outcome, nulls)
        facts["counters"] = boundary_counts(outcome, ops, nulls)
        self.check(outcome, facts, smoke)
        facts["nulls"] = dict(nulls)
        return facts


def _lan_static_rw(seed: int, ops: int, tmp: str) -> Any:
    quorum = repro.ConsistencyLevel.QUORUM
    return repro.RunSpec(
        platform=repro.single_dc_platform(),
        policy=repro.static_factory(quorum, quorum),
        workload=repro.WORKLOADS["A"].scaled(1_000),
        ops=ops, seed=seed, warmup_fraction=0.0,
    )


def _check_lan(outcome: Any, facts: Facts, smoke: bool) -> None:
    if outcome.report.stale_rate != 0.0:  # R + W > N: never stale
        facts["problems"].append(f"stale rate {outcome.report.stale_rate} at QUORUM/QUORUM")


HARMONY_TOLERANCE = 0.02


def _geo_harmony(seed: int, ops: int, tmp: str, obs: Optional[Any] = None) -> Any:
    return repro.RunSpec(
        platform=repro.grid5000_harmony_platform(),
        # at 0.2 Harmony is inert on this mix; 0.02 makes it really adapt
        policy=repro.harmony_factory(HARMONY_TOLERANCE),
        workload=repro.WORKLOADS["B"].scaled(50_000),
        ops=ops, seed=seed, warmup_fraction=0.0, obs=obs,
    )


def _check_harmony(outcome: Any, facts: Facts, smoke: bool) -> None:
    report = outcome.report
    facts["info"]["read_levels"] = dict(report.read_levels)
    if smoke:
        return  # too short for the policy to leave its first level
    if len(report.read_levels) < 2:
        facts["problems"].append(f"Harmony used one read level: {report.read_levels}")
    if report.stale_rate > HARMONY_TOLERANCE + 0.02:
        facts["problems"].append(
            f"stale rate {report.stale_rate:.4f} > tolerance + 0.02")


def _geo_harmony_obs(seed: int, ops: int, tmp: str) -> Any:
    out_dir = os.path.join(tmp, "obs")
    return _geo_harmony(seed, ops, tmp, obs=ObsConfig(
        sample_interval=0.05, trace=True, trace_sample_every=4, out_dir=out_dir))


def _check_harmony_obs(outcome: Any, facts: Facts, smoke: bool) -> None:
    _check_harmony(outcome, facts, smoke)
    out_dir = outcome.obs.config.out_dir
    files = [os.path.join(out_dir, f) for f in sorted(os.listdir(out_dir))]
    facts["counters"]["obs.artifact_bytes"] = float(sum(os.path.getsize(f) for f in files))
    validate = _cli(["report", "--validate", out_dir])
    if validate.returncode != 0:
        facts["problems"].append(
            f"repro report --validate exit {validate.returncode}: {validate.stdout[-300:]}")


def obs_off_twin(seed: int, ops: int, tmp: str) -> Any:
    """``geo-harmony-obs`` with the observer off: must report byte-equal."""
    return repro.run(_geo_harmony(seed, ops, tmp))


def _geo_bismar_write(seed: int, ops: int, tmp: str) -> Any:
    platform = repro.grid5000_bismar_platform()
    return repro.RunSpec(
        platform=platform,
        policy=repro.bismar_factory(platform.prices),
        workload=repro.WorkloadSpec(
            name="write-heavy-20-80", read_proportion=0.2, update_proportion=0.8,
            record_count=platform.default_record_count),
        ops=ops, seed=seed, warmup_fraction=0.0,
    )


def _check_bismar(outcome: Any, facts: Facts, smoke: bool) -> None:
    facts["info"]["read_levels"] = dict(outcome.report.read_levels)
    if outcome.bill.total <= 0:
        facts["problems"].append(f"bill {outcome.bill.total} is not positive")
    decisions = len(getattr(outcome.policy, "decisions", ()))
    facts["info"]["policy_decisions"] = decisions
    # On some seeds Bismar rightly holds n=1 for the whole run, so "two
    # levels used" cannot be required; that it kept deciding can.
    if not smoke and decisions < 2:
        facts["problems"].append(f"Bismar took {decisions} decisions")


#: commit-protocol timeouts short enough that termination and recovery
#: rounds finish inside the run (the values the repo's own storm bench uses)
_STORM_TXN_CONFIG = dict(
    prepare_timeout=0.5, client_timeout=2.0, retry_interval=0.25,
    status_interval=0.1, status_backoff=2.0, status_interval_max=0.5,
    termination_after=2, termination_timeout=0.25,
)


def _paced_storm(injector: Any) -> None:
    """A rolling 4-node crash storm every 5 simulated seconds, for an hour.

    Paced across the whole run: one storm at the start would land in the
    first tenth of it and leave the recovery paths idle. Storms scheduled
    past the end of the run never fire (the simulator stops with the last
    client).
    """
    for k in range(720):
        injector.crash_storm([0, 2, 5, 7], start=1.0 + 5.0 * k, interval=0.5, downtime=1.5)


def _txn_storm_3pc(seed: int, ops: int, tmp: str) -> Any:
    return repro.RunSpec(
        platform=repro.storm_txn_platform(),
        policy=repro.named_policy_factory("quorum"),
        txn_workload=repro.TxnWorkloadSpec(
            name="read-modify-write", n_keys=1, read_slots=(0,), write_slots=(0,),
            record_count=400),
        ops=ops, clients=12, seed=seed, warmup_fraction=0.0,
        commit_protocol="3pc", failure_script=_paced_storm,
        txn_config=repro.TxnConfig(**_STORM_TXN_CONFIG),
    )


def _check_txn_storm(outcome: Any, facts: Facts, smoke: bool) -> None:
    txn = _txn_block(outcome)
    if txn["lost_updates"] != 0:
        facts["problems"].append(f"{txn['lost_updates']} lost updates")
    if not smoke and _recoveries(txn) <= 0:
        facts["problems"].append("the crash storm never reached a recovery path")


def _aio_txn_bank(seed: int, ops: int, tmp: str) -> Any:
    return repro.RunSpec(
        platform=repro.storm_txn_platform(),
        policy=repro.named_policy_factory("quorum"),
        txn_workload=repro.bank_transfer_mix(1_000),
        ops=ops, clients=8, seed=seed, backend="asyncio",
    )


def _check_aio(outcome: Any, facts: Facts, smoke: bool) -> None:
    txn = _txn_block(outcome)
    if txn["lost_updates"] != 0:
        facts["problems"].append(f"{txn['lost_updates']} lost updates")
    if getattr(outcome, "timed_out", False):
        facts["problems"].append("the asyncio run hit its wall-clock guard")


# -- the CLI sweep ----------------------------------------------------------------


def _cli(args: List[str]) -> "subprocess.CompletedProcess[str]":
    return subprocess.run(
        [sys.executable, "-m", "repro.cli"] + args, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)


@dataclasses.dataclass
class SweepWorkload:
    """``repro sweep --jobs 2`` over every registered scenario, as typed."""

    name: str
    size: int  # the CLI's --ops
    unit: str = "row-ops"
    jobs: int = 2
    #: a subprocess cannot be profiled from here; the traced run goes
    #: through SweepRunner(jobs=1) in this process instead
    timed_in_process = False
    twin = None
    deterministic = True
    _scenarios: int = 0

    def prepare(self) -> None:
        """Ask the CLI how many scenarios are registered (the expected rows)."""
        listing = _cli(["scenarios", "--json"])
        if listing.returncode != 0:
            raise RuntimeError(f"repro scenarios --json: {listing.stderr[-300:]}")
        self._scenarios = len(json.loads(listing.stdout))

    def run(self, seed: int, ops: int, tmp: str) -> Any:
        out_dir = os.path.join(tmp, f"sweep-{ops}")
        done = _cli(["sweep", "--jobs", str(self.jobs), "--ops", str(ops),
                     "--seed", str(seed), "--out", out_dir])
        return {"exit": done.returncode, "stderr": done.stderr[-300:], "out_dir": out_dir}

    def facts(self, outcome: Any, ops: int, smoke: bool) -> Facts:
        facts: Facts = {"requested": 0, "attempted": self._scenarios,
                        "failed": self._scenarios, "problems": [], "info": {},
                        "model": {}, "counters": {}, "nulls": {}}
        if outcome["exit"] != 0:
            facts["problems"].append(f"repro sweep exit {outcome['exit']}: {outcome['stderr']}")
        else:
            with open(os.path.join(outcome["out_dir"], "results.json"), "rb") as fh:
                raw = fh.read()
            rows = json.loads(raw)["runs"]
            good = [r for r in rows if not r.get("error") and r.get("status", "ok") == "ok"]
            facts["requested"] = sum(int(r["ops_completed"]) for r in good)
            facts["failed"] = self._scenarios - len(good)
            facts["info"]["rows"] = len(rows)
            # one simulation per scenario: the file's crc pins them all
            facts["model"]["model.report_crc32"] = float(zlib.crc32(raw) & 0xFFFFFFFF)
            if len(rows) != self._scenarios:
                facts["problems"].append(
                    f"{len(rows)} rows for {self._scenarios} registered scenarios")
        return facts

    def in_process(self, seed: int, ops: int, tmp: str) -> int:
        """The same plan through ``SweepRunner(jobs=1)``; returns row-ops."""
        from repro.experiments.sweep import plan_sweep

        result = repro.SweepRunner(jobs=1).run(plan_sweep(root_seed=seed, ops=ops))
        return sum(int(r["ops_completed"]) for r in result.rows)


WORKLOADS: Dict[str, Any] = {w.name: w for w in (
    RunWorkload("lan-static-rw", 36_000, "ops", _lan_static_rw, _check_lan),
    RunWorkload("geo-harmony-read", 30_000, "ops", _geo_harmony, _check_harmony),
    RunWorkload("geo-bismar-write", 18_000, "ops", _geo_bismar_write, _check_bismar),
    RunWorkload("geo-harmony-obs", 30_000, "ops", _geo_harmony_obs, _check_harmony_obs,
                twin=obs_off_twin),
    RunWorkload("txn-storm-3pc", 9_000, "txns", _txn_storm_3pc, _check_txn_storm),
    RunWorkload("aio-txn-bank", 3_000, "txns", _aio_txn_bank, _check_aio, deterministic=False),
    SweepWorkload("sweep-registry", 1_500),
)}


#: fewest ops every workload accepts (the widest preset has 64 clients)
MIN_OPS = 64


def timed_ops(workload: Any, smoke: bool) -> int:
    return max(workload.size // SMOKE_DIVISOR, MIN_OPS) if smoke else workload.size


def warmup_ops(workload: Any, smoke: bool) -> int:
    return max(int(timed_ops(workload, smoke) * WARMUP_SHARE), MIN_OPS)
