"""Tests for the unified ``repro.run(RunSpec)`` front door.

The facade's promises, each asserted here:

- :class:`~repro.facade.RunSpec` rejects contradictory shapes loudly at
  construction time (not deep inside a harness);
- every run, on either engine, returns the one :class:`RunOutcome`, whose
  optional fields (``tstore`` / ``cluster`` / ``autoscaler``) and report
  blocks (``txn`` / ``elastic``) follow the spec's shape;
- no in-repo path through the facade emits a :class:`DeprecationWarning`;
- the asyncio backend runs the spec as declared (platform topology and
  RF, plain or transactional workload, policy, bill, observer, protocol,
  failure script and pacing);
- the backend knob threads through scenarios and sweep planning without
  entering a job's identity (sim seeds are reused verbatim);
- the package's public ``__all__`` surface actually resolves.
"""

import dataclasses

import pytest

import repro
from repro.cluster.store import ReplicatedStore
from repro.common.errors import ConfigError
from repro.elastic import AutoscalerConfig, ElasticSpec
from repro.experiments import scenarios
from repro.experiments.platforms import (
    ec2_harmony_platform,
    grid5000_harmony_platform,
    single_dc_platform,
    small_dc_platform,
)
from repro.experiments.runner import (
    RunOutcome,
    harmony_factory,
    named_policy_factory,
    static_factory,
)
from repro.experiments.sweep import plan_sweep
from repro.experiments.sweep import SweepRunner
from repro.facade import RunSpec, run
from repro.obs.recorder import ObsConfig
from repro.obs.report import load_timeline, validate_timeline
from repro.runtime.localhost import LocalhostSpec
from repro.txn.api import TxnConfig
from repro.workload.workloads import bank_transfer_mix, heavy_read_update


def _plain_spec(**overrides):
    base = dict(
        platform=single_dc_platform(),
        policy=harmony_factory(0.05),
        ops=400,
        seed=11,
    )
    base.update(overrides)
    return RunSpec(**base)


def _txn_spec(**overrides):
    base = dict(
        platform=single_dc_platform(),
        policy=named_policy_factory("eventual"),
        txn_workload=bank_transfer_mix(record_count=400),
        ops=60,
        clients=8,
        seed=11,
    )
    base.update(overrides)
    return RunSpec(**base)


class TestRunSpecValidation:
    def test_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            RunSpec(single_dc_platform(), harmony_factory(0.05))

    def test_unknown_backend(self):
        with pytest.raises(ConfigError, match="backend"):
            _plain_spec(backend="mpi")

    def test_bad_client_mode(self):
        with pytest.raises(ConfigError, match="client_mode"):
            _plain_spec(client_mode="swarm")

    def test_elastic_and_txn_are_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            _txn_spec(elastic=ElasticSpec())

    def test_txn_knobs_require_txn_workload(self):
        with pytest.raises(ConfigError, match="txn_workload"):
            _plain_spec(txn_config=TxnConfig())
        with pytest.raises(ConfigError, match="txn_workload"):
            _plain_spec(commit_protocol="3pc")

    def test_asyncio_backend_takes_a_plain_workload(self):
        assert _plain_spec(backend="asyncio").txn_workload is None

    def test_asyncio_backend_rejects_sim_only_knobs(self):
        # Only elasticity is sim-only; observers run on either engine.
        assert _txn_spec(backend="asyncio", obs=ObsConfig()).obs is not None
        with pytest.raises(ConfigError, match="sim-only"):
            RunSpec(
                platform=single_dc_platform(),
                policy=harmony_factory(0.05),
                elastic=ElasticSpec(),
                backend="asyncio",
            )

    def test_asyncio_backend_takes_failure_scripts_and_pacing(self):
        spec = _txn_spec(
            backend="asyncio", failure_script=lambda inj: None, target_throughput=50.0
        )
        assert spec.failure_script is not None and spec.target_throughput == 50.0

    def test_localhost_spec_is_the_wall_clock_half_only(self):
        assert {f.name for f in dataclasses.fields(LocalhostSpec)} == {
            "time_scale", "wall_timeout", "wal_dir",
        }
        with pytest.raises(ConfigError):
            LocalhostSpec(wall_timeout=0.0)
        with pytest.raises(ConfigError):
            LocalhostSpec(time_scale=-1.0)
        assert LocalhostSpec(time_scale=0.5, wall_timeout=3.0).max_time == 6.0


def _elastic_spec(**overrides):
    base = dict(
        platform=small_dc_platform(),
        policy=static_factory(1, 1, name="one"),
        elastic=ElasticSpec(),
        ops=300,
        clients=4,
        seed=3,
    )
    base.update(overrides)
    return RunSpec(**base)


class TestOutcomeShape:
    def test_plain_run(self):
        out = run(_plain_spec())
        assert isinstance(out, RunOutcome)
        assert out.tstore is None and out.cluster is None and out.autoscaler is None
        assert out.report.txn is None and out.report.elastic is None
        # The report covers the measured window: 400 ops minus 20% warmup.
        assert out.report.ops_completed == 320

    def test_txn_run(self):
        out = run(_txn_spec())
        assert isinstance(out, RunOutcome)
        assert out.tstore is not None and out.tstore.store is out.store
        assert out.cluster is None and out.autoscaler is None
        assert out.report.elastic is None
        txn = out.report.txn
        assert txn["commits"] + sum(txn["aborts"].values()) == txn["txns"]

    def test_elastic_run(self):
        out = run(_elastic_spec())
        assert isinstance(out, RunOutcome)
        assert out.cluster is not None and out.cluster.store is out.store
        assert out.autoscaler is None  # none configured
        assert out.tstore is None and out.report.txn is None
        assert out.report.elastic is not None
        assert "autoscaler" not in out.report.elastic

    def test_elastic_run_with_autoscaler(self):
        out = run(_elastic_spec(elastic=ElasticSpec(autoscaler=AutoscalerConfig())))
        assert out.autoscaler is not None and out.autoscaler.cluster is out.cluster
        assert out.report.elastic["autoscaler"] == out.autoscaler.summary()

    def test_observer_is_wired_into_the_txn_store(self):
        out = run(_txn_spec(obs=ObsConfig()))
        assert out.obs is not None and out.tstore.obs is out.obs
        assert run(_txn_spec()).obs is None

    def test_asyncio_run(self):
        out = run(_txn_spec(backend="asyncio", ops=10, clients=2))
        assert isinstance(out, RunOutcome)
        assert not out.timed_out
        txn = out.report.txn
        assert txn["commits"] + sum(txn["aborts"].values()) == txn["txns"] == 10
        assert 0.0 <= out.report.stale_rate <= 1.0
        # The spec's policy sets the read level, and the run is billed.
        assert out.policy.name == out.report.policy == "eventual"
        assert set(out.report.read_levels) == {"n=1"}
        assert out.bill.total > 0.0
        # The transactions ran on the platform's replicated store.
        assert isinstance(out.store, ReplicatedStore)
        assert out.tstore.store is out.store

    def test_txn_block_has_the_same_keys_on_both_engines(self):
        sim = run(_txn_spec(ops=20, clients=2)).report.txn
        aio = run(_txn_spec(backend="asyncio", ops=20, clients=2)).report.txn
        assert set(sim) == set(aio)

    @pytest.mark.parametrize("make_spec", [_plain_spec, _txn_spec, _elastic_spec])
    def test_facade_itself_does_not_warn(self, make_spec, recwarn):
        run(make_spec(ops=200))
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]


class TestAsyncioBackend:
    """The asyncio run executes the spec the caller declared."""

    def test_run_mirrors_platform_and_workload(self):
        platform = ec2_harmony_platform()
        out = run(
            _txn_spec(
                platform=platform,
                ops=30,
                clients=5,
                seed=77,
                commit_protocol="3pc",
                backend="asyncio",
            )
        )
        store = out.store
        assert store.topology.n_nodes == platform.topology_factory().n_nodes
        assert store.strategy.rf_total == platform.rf
        assert store.config.seed == 77
        assert out.tstore.config.commit_protocol == "3pc"
        assert out.report.txn["txns"] == 30
        assert out.report.workload == "bank-transfer"

    def test_defaults_are_smoke_sized(self):
        out = run(_txn_spec(ops=None, clients=None, backend="asyncio"))
        assert out.report.txn["txns"] == 50  # not the platform's simulator scale

    def test_localhost_spec_places_the_wals(self, tmp_path):
        out = run(
            _txn_spec(
                backend="asyncio",
                ops=8,
                clients=2,
                localhost=LocalhostSpec(time_scale=0.02, wal_dir=str(tmp_path)),
            )
        )
        assert out.report.txn["txns"] == 8
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"node{i}.wal" for i in range(12)
        )

    def test_failure_script_crashes_and_recovers_a_node(self):
        # Paced so the run outlasts the script: the crash and the recovery
        # (with its WAL recovery pass) both land inside it.
        injectors = []

        def script(injector):
            injectors.append(injector)
            injector.crash_node(0, at=0.3, duration=0.4)

        out = run(
            _txn_spec(
                backend="asyncio",
                ops=16,
                clients=2,
                target_throughput=16.0,
                failure_script=script,
            )
        )
        assert [e.kind for e in injectors[0].events] == ["node-crash", "node-recover"]
        assert out.tstore.store.nodes[0].up
        assert not out.timed_out
        assert out.report.txn["lost_updates"] == 0

    def test_target_throughput_paces_the_clients(self):
        out = run(
            _txn_spec(backend="asyncio", ops=16, clients=2, target_throughput=20.0)
        )
        # 8 txns per client at 10/s: the last one issues at 0.7 s.
        assert out.report.txn["txns"] == 16
        assert out.report.duration >= 0.7
        assert out.report.txn["txns_per_s"] < 25.0

    def test_adaptive_policy_and_bill_on_the_wall_clock(self):
        # Harmony on a plain workload: the monitored WAN staleness must move
        # reads off ONE, and the run is billed at the platform's prices.
        out = run(
            RunSpec(
                platform=grid5000_harmony_platform(),
                policy=harmony_factory(0.05),
                workload=heavy_read_update(),
                ops=4_000,
                clients=16,
                backend="asyncio",
                localhost=LocalhostSpec(time_scale=0.25),
            )
        )
        assert not out.timed_out
        assert len(out.report.read_levels) > 1, out.report.read_levels
        assert out.bill.total > 0.0
        assert sum(out.report.failures.values()) == 0

    def test_observer_writes_a_valid_timeline(self, tmp_path):
        out = run(
            _txn_spec(
                backend="asyncio",
                ops=16,
                clients=2,
                obs=ObsConfig(out_dir=str(tmp_path)),
            )
        )
        assert out.obs is not None and out.tstore.obs is out.obs
        records = load_timeline(str(tmp_path / "timeline.jsonl"))
        assert validate_timeline(records) == []
        assert any(r["type"] == "sample" for r in records)

    def test_one_spec_reports_the_same_shape_on_both_engines(self):
        spec = _txn_spec(ops=20, clients=2)
        sim = run(spec)
        aio = run(dataclasses.replace(spec, backend="asyncio"))
        def filled(report):
            return {k for k, v in dataclasses.asdict(report).items() if v is not None}

        assert filled(sim.report) == filled(aio.report)
        assert set(sim.report.txn) == set(aio.report.txn)
        assert sim.report.policy == aio.report.policy == "eventual"


class TestBackendKnobThreading:
    def test_scenario_run_on_asyncio(self):
        spec = scenarios.get("txn-shootout")
        result = spec.run(seed=11, overrides={}, ops=16, backend="asyncio")
        assert result.report.policy == "harmony(0.4)"  # the scenario's policy
        txn = result.report.txn
        assert txn["commits"] + sum(txn["aborts"].values()) == 16
        assert result.bill.total > 0.0  # billed on the priced EC2 platform

    def test_txn_scenario_failures_run_on_asyncio(self):
        result = scenarios.get("txn-crash-storm").run(
            seed=1, overrides={}, ops=24, backend="asyncio"
        )
        assert result.report.txn["lost_updates"] == 0

    def test_asyncio_sweep_rows_have_the_sim_row_shape(self):
        def row(backend):
            plan = plan_sweep(["txn-shootout"], ops=16, backend=backend)
            (only,) = SweepRunner(jobs=1).run(plan).rows
            return only

        sim, aio = row(None), row("asyncio")
        assert set(aio) == set(sim) | {"backend"}
        assert set(aio["txn"]) == set(sim["txn"])
        assert aio["policy"] == sim["policy"] and aio["cost_total_usd"] > 0.0

    def test_plan_sweep_validates_backend(self):
        with pytest.raises(ConfigError, match="backend"):
            plan_sweep(["txn-shootout"], backend="threads")

    def test_backend_stays_outside_job_identity(self):
        # Same scenarios, same grid: the asyncio plan must reuse the sim
        # plan's seeds and keys verbatim, so cross-backend comparisons pair
        # rows one-to-one.
        sim_plan = plan_sweep(["txn-shootout"])
        aio_plan = plan_sweep(["txn-shootout"], backend="asyncio")
        assert [j.key() for j in sim_plan.jobs] == [j.key() for j in aio_plan.jobs]
        assert [j.seed for j in sim_plan.jobs] == [j.seed for j in aio_plan.jobs]
        assert all(j.backend is None for j in sim_plan.jobs)
        assert all(j.backend == "asyncio" for j in aio_plan.jobs)


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_run_is_the_facade(self):
        import repro.facade

        assert repro.run is repro.facade.run
        assert repro.RunSpec is repro.facade.RunSpec

    def test_runspec_is_a_frozen_shape_of_known_fields(self):
        fields = {f.name for f in dataclasses.fields(repro.RunSpec)}
        assert {
            "platform",
            "policy",
            "workload",
            "txn_workload",
            "elastic",
            "backend",
            "localhost",
        } <= fields
