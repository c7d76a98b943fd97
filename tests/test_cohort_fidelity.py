"""Fidelity suite: cohort mode reproduces per-client metrics on real scenarios.

Each covered scenario runs twice at equal scale -- same client count, same
op budget, same seed -- once with one object per client and once with the
pooled cohort engine, and the headline metrics must agree within the
tolerances below.  The tolerances are the *documented contract* (see
``docs/ARCHITECTURE.md``): they were set from the worst disagreement
measured across scenarios x seeds, with margin, so a regression in either
engine moves at least one assertion.

What "equal" can mean differs by knob:

- **Unpaced** (pure closed loop) the two engines are the same stochastic
  process -- the per-op latency distributions match to KS < 0.05.
- **Paced**, per-client mode spaces each client's ops deterministically at
  ``rate/N`` while a cohort draws Poisson arrivals at the aggregate rate;
  the superposition of N deterministic renewal streams approaches Poisson
  as N grows, so at small N the *distribution shapes* differ by design
  while rate-normalized metrics (means, percentiles, staleness, cost)
  still agree within the contract.
"""

from __future__ import annotations

import pytest
from scipy.stats import ks_2samp

from repro.experiments import scenarios
from tests.conftest import sim_store

#: The equivalence contract: relative tolerance per metric.  Staleness
#: rates use an absolute floor of 0.1 in the denominator, i.e. near-zero
#: rates may differ by up to 0.1 * rel absolute before failing.
TOLERANCE = {
    "read_latency_mean_ms": 0.20,
    "write_latency_mean_ms": 0.20,
    "read_latency_p99_ms": 0.25,
    "write_latency_p99_ms": 0.25,
    "stale_rate": 0.35,
    "stale_rate_strict": 0.35,
    "cost_per_kop_usd": 0.50,
    "throughput_ops_s": 0.50,
}
STALE_FLOOR = 0.1

#: Scenarios the contract is asserted on (>= 3, non-elastic: the elastic
#: autoscaler feeds metrics back into capacity decisions, which amplifies
#: any modeling difference into divergent membership histories).
SCENARIOS = ("single-dc-ycsb-a", "geo-replication", "diurnal-traffic")
SEED = 7


def _rel_err(measured: float, reference: float, floor: float = 0.0) -> float:
    """|measured - reference| / max(|reference|, floor); 0/0 is 0."""
    diff = abs(measured - reference)
    denom = max(abs(reference), floor)
    return diff / denom if denom else (0.0 if diff == 0.0 else float("inf"))


@pytest.fixture(scope="module")
def mode_metrics():
    """Run every covered scenario once per mode (cached across tests)."""
    out = {}
    for name in SCENARIOS:
        spec = scenarios.get(name)
        out[name] = {
            mode: spec.run(seed=SEED, client_mode=mode).metrics()
            for mode in ("per_client", "cohort")
        }
    return out


@pytest.mark.parametrize("name", SCENARIOS)
class TestMetricAgreement:
    def test_same_op_count(self, mode_metrics, name):
        pc, co = mode_metrics[name]["per_client"], mode_metrics[name]["cohort"]
        assert pc["ops_completed"] == co["ops_completed"]

    def test_latency_means_agree(self, mode_metrics, name):
        pc, co = mode_metrics[name]["per_client"], mode_metrics[name]["cohort"]
        for key in ("read_latency_mean_ms", "write_latency_mean_ms"):
            err = _rel_err(co[key], pc[key])
            assert err <= TOLERANCE[key], f"{name}.{key}: rel error {err:.3f}"

    def test_latency_percentiles_agree(self, mode_metrics, name):
        pc, co = mode_metrics[name]["per_client"], mode_metrics[name]["cohort"]
        for key in ("read_latency_p99_ms", "write_latency_p99_ms"):
            err = _rel_err(co[key], pc[key])
            assert err <= TOLERANCE[key], f"{name}.{key}: rel error {err:.3f}"

    def test_staleness_rates_agree(self, mode_metrics, name):
        pc, co = mode_metrics[name]["per_client"], mode_metrics[name]["cohort"]
        for key in ("stale_rate", "stale_rate_strict"):
            assert _rel_err(co[key], pc[key], STALE_FLOOR) <= TOLERANCE[key], (
                f"{name}.{key}: per_client={pc[key]:.4g} cohort={co[key]:.4g}"
            )

    def test_cost_agrees(self, mode_metrics, name):
        pc, co = mode_metrics[name]["per_client"], mode_metrics[name]["cohort"]
        key = "cost_per_kop_usd"
        err = _rel_err(co[key], pc[key])
        assert err <= TOLERANCE[key], f"{name}.{key}: rel error {err:.3f}"

    def test_throughput_agrees(self, mode_metrics, name):
        pc, co = mode_metrics[name]["per_client"], mode_metrics[name]["cohort"]
        key = "throughput_ops_s"
        err = _rel_err(co[key], pc[key])
        assert err <= TOLERANCE[key], f"{name}.{key}: rel error {err:.3f}"

    def test_modes_are_labelled(self, mode_metrics, name):
        assert mode_metrics[name]["per_client"]["client_mode"] == "per_client"
        assert mode_metrics[name]["cohort"]["client_mode"] == "cohort"
        assert mode_metrics[name]["cohort"]["cohorts"]


class TestLatencyDistribution:
    """Unpaced closed loops are the same process: whole-distribution check."""

    def _latencies(self, mode):
        from tests.conftest import Simulator
        from repro.cluster.store import StoreConfig
        from repro.net.latency import FixedLatency
        from repro.net.topology import Datacenter, LinkClass, Topology
        from repro.policy import StaticPolicy
        from repro.workload.client import WorkloadRunner
        from repro.workload.traces import TraceRecorder
        from repro.workload.workloads import heavy_read_update

        topo = Topology(
            [Datacenter("dc", "r")], [4],
            latency={LinkClass.INTRA_DC: FixedLatency(0.0003)},
        )
        store = sim_store(
            Simulator(), topo, config=StoreConfig(seed=3, read_repair_chance=0.0)
        )
        recorder = TraceRecorder()
        store.add_listener(recorder)
        WorkloadRunner(
            store, heavy_read_update(record_count=100),
            policy=StaticPolicy(1, 2, name="s"),
            n_clients=16, ops_total=6000, seed=5, client_mode=mode,
        ).run()
        reads = [r.latency for r in recorder.records if r.kind == "read"]
        writes = [r.latency for r in recorder.records if r.kind == "write"]
        return reads, writes

    def test_unpaced_latency_distributions_match(self):
        pc_reads, pc_writes = self._latencies("per_client")
        co_reads, co_writes = self._latencies("cohort")
        assert ks_2samp(pc_reads, co_reads).statistic < 0.05
        assert ks_2samp(pc_writes, co_writes).statistic < 0.08
