"""Tests for the unified ``repro.run(RunSpec)`` front door.

The facade's promises, each asserted here:

- :class:`~repro.facade.RunSpec` rejects contradictory shapes loudly at
  construction time (not deep inside a harness);
- every sim run returns the one :class:`RunOutcome`, whose optional
  fields (``tstore`` / ``cluster`` / ``autoscaler``) and report blocks
  (``txn`` / ``elastic``) follow the spec's shape; the asyncio backend
  returns a :class:`LocalhostRunOutcome`;
- no in-repo path through the facade emits a :class:`DeprecationWarning`;
- the asyncio backend derives a faithful
  :class:`~repro.runtime.localhost.LocalhostSpec` from the sim-style
  spec (topology, RF, slots, keyspace, hotspot approximation);
- the backend knob threads through scenarios and sweep planning without
  entering a job's identity (sim seeds are reused verbatim);
- the package's public ``__all__`` surface actually resolves.
"""

import dataclasses

import pytest

import repro
from repro.common.errors import ConfigError
from repro.elastic import AutoscalerConfig, ElasticSpec
from repro.experiments import scenarios
from repro.experiments.platforms import (
    ec2_harmony_platform,
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
from repro.facade import (
    LocalhostRunOutcome,
    RunSpec,
    _derive_localhost_spec,
    _hotspot_shape,
    run,
)
from repro.obs.recorder import ObsConfig
from repro.txn.api import TxnConfig
from repro.workload.workloads import TxnWorkloadSpec, bank_transfer_mix


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

    def test_asyncio_backend_needs_a_transactional_shape(self):
        with pytest.raises(ConfigError, match="transactional"):
            _plain_spec(backend="asyncio")

    def test_asyncio_backend_rejects_sim_only_knobs(self):
        with pytest.raises(ConfigError, match="sim-only"):
            _txn_spec(backend="asyncio", obs=ObsConfig())
        with pytest.raises(ConfigError, match="sim-only"):
            _txn_spec(backend="asyncio", failure_script=((0.1, "crash", 0),))
        with pytest.raises(ConfigError, match="closed-loop"):
            _txn_spec(backend="asyncio", target_throughput=500.0)

    def test_asyncio_elastic_is_rejected(self):
        from repro.runtime.localhost import LocalhostSpec

        # Without a localhost spec the transactional-shape check fires first;
        # with one, the elastic rejection is the active guard.
        with pytest.raises(ConfigError, match="transactional"):
            RunSpec(
                platform=single_dc_platform(),
                policy=harmony_factory(0.05),
                elastic=ElasticSpec(),
                backend="asyncio",
            )
        with pytest.raises(ConfigError, match="sim-only"):
            RunSpec(
                platform=single_dc_platform(),
                policy=harmony_factory(0.05),
                elastic=ElasticSpec(),
                backend="asyncio",
                localhost=LocalhostSpec(txns=2),
            )


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
        assert isinstance(out, LocalhostRunOutcome)
        assert not out.timed_out
        assert out.txn["commits"] + sum(out.txn["aborts"].values()) == 10
        assert 0.0 <= out.stale_rate <= 1.0
        assert out.spec.txns == 10

    @pytest.mark.parametrize("make_spec", [_plain_spec, _txn_spec, _elastic_spec])
    def test_facade_itself_does_not_warn(self, make_spec, recwarn):
        run(make_spec(ops=200))
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]


class TestLocalhostDerivation:
    def test_hotspot_shapes(self):
        def mix(distribution, **kwargs):
            return TxnWorkloadSpec(
                name="m",
                n_keys=2,
                read_slots=(0,),
                write_slots=(0, 1),
                record_count=1000,
                distribution=distribution,
                distribution_kwargs=kwargs,
            )

        assert _hotspot_shape(mix("uniform")) == (0, 0.0)
        assert _hotspot_shape(
            mix("hotspot", hot_set_fraction=0.1, hot_opn_fraction=0.9)
        ) == (100, 0.9)
        # Skewed families approximate as a 5% hot set taking half the draws.
        assert _hotspot_shape(mix("zipfian")) == (50, 0.5)
        assert _hotspot_shape(mix("latest")) == (50, 0.5)

    def test_derived_spec_mirrors_platform_and_workload(self):
        platform = ec2_harmony_platform()
        spec = _derive_localhost_spec(
            _txn_spec(
                platform=platform,
                ops=30,
                clients=5,
                seed=77,
                commit_protocol="3pc",
                backend="asyncio",
            )
        )
        assert spec.topology.n_nodes == platform.topology_factory().n_nodes
        assert spec.txns == 30
        assert spec.clients == 5
        assert spec.seed == 77
        assert spec.writes_per_txn == 2  # bank transfer writes both slots
        assert spec.reads_per_txn == 2
        assert spec.n_keys == 400
        assert spec.txn_config.commit_protocol == "3pc"

    def test_derived_spec_defaults_are_smoke_sized(self):
        spec = _derive_localhost_spec(_txn_spec(ops=None, clients=None))
        assert spec.txns == 50  # not the platform's simulator-scale default
        assert spec.clients <= 8

    def test_explicit_localhost_spec_wins(self):
        from repro.runtime.localhost import LocalhostSpec

        explicit = LocalhostSpec(txns=4, clients=1, time_scale=0.02)
        out = run(
            RunSpec(
                platform=single_dc_platform(),
                policy=named_policy_factory("eventual"),
                backend="asyncio",
                localhost=explicit,
            )
        )
        assert out.spec is explicit
        assert out.result["outcomes"] == 4


class TestBackendKnobThreading:
    def test_scenario_run_on_asyncio_labels_rows_localhost(self):
        spec = scenarios.get("txn-shootout")
        result = spec.run(seed=11, overrides={}, ops=8, backend="asyncio")
        assert result.report.policy == "localhost"
        txn = result.report.txn
        assert txn["commits"] + sum(txn["aborts"].values()) == 8
        assert result.cost_total == 0.0  # wall-clock runs are not billed

    def test_scenario_failures_are_sim_only_on_asyncio(self):
        flagged = [
            scenarios.get(n)
            for n in scenarios.names()
            if scenarios.get(n).failures is not None
        ]
        assert flagged  # the registry carries chaos scenarios
        with pytest.raises(ConfigError, match="sim-only|transactional"):
            flagged[0].run(seed=1, overrides={}, ops=4, backend="asyncio")

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
