"""Tests for platform presets and the experiment harness (scaled down)."""

import pytest

from repro.experiments.platforms import (
    ec2_cost_platform,
    ec2_harmony_platform,
    grid5000_bismar_platform,
    grid5000_harmony_platform,
    single_dc_platform,
    small_dc_platform,
    storm_txn_platform,
)
from repro.experiments.runner import (
    bismar_factory,
    harmony_factory,
    rationing_factory,
    rwratio_factory,
    static_factory,
)
from repro.facade import RunSpec, run
from repro.net.topology import LinkClass


class TestPlatforms:
    @pytest.mark.parametrize(
        "factory,nodes,rf",
        [
            (ec2_harmony_platform, 20, 3),
            (grid5000_harmony_platform, 84, 3),
            (ec2_cost_platform, 18, 5),
            (grid5000_bismar_platform, 50, 5),
        ],
    )
    def test_paper_deployment_shapes(self, factory, nodes, rf):
        plat = factory()
        sim, store = plat.build(seed=0)
        assert store.topology.n_nodes == nodes
        assert store.strategy.rf_total == rf
        assert plat.rf == rf
        assert len(store.topology.datacenters) == 2

    def test_builds_are_independent(self):
        plat = ec2_harmony_platform()
        _, a = plat.build(seed=0)
        _, b = plat.build(seed=0)
        assert a is not b
        assert a.sim is not b.sim

    @pytest.mark.parametrize(
        "factory,ops,records",
        [
            (single_dc_platform, 30_000, 1000),
            (small_dc_platform, 20_000, 800),
            (ec2_harmony_platform, 30_000, 1000),
            (grid5000_harmony_platform, 30_000, 1000),
            (storm_txn_platform, 12_000, 400),
            (ec2_cost_platform, 40_000, 120),
            (grid5000_bismar_platform, 40_000, 120),
        ],
    )
    def test_default_run_size(self, factory, ops, records):
        plat = factory()
        assert (plat.default_ops, plat.default_record_count) == (ops, records)

    def test_g5k_has_wan_latency(self):
        plat = grid5000_harmony_platform()
        _, store = plat.build(seed=0)
        wan = store.topology.latency_models[LinkClass.INTER_REGION].mean()
        assert wan == pytest.approx(0.009, rel=0.01)


class TestRunOne:
    def test_static_run_returns_report_and_bill(self):
        plat = ec2_harmony_platform()
        out = run(
            RunSpec(
                platform=plat, policy=static_factory(1, 1, name="one"),
                ops=2000, clients=8, seed=1,
            )
        )
        rep, bill = out.report, out.bill
        assert rep.ops_completed > 0
        assert rep.policy == "one"
        assert bill.total > 0
        assert bill.ops > 0

    def test_warmup_excluded_from_bill(self):
        plat = ec2_harmony_platform()
        bill_full = run(
            RunSpec(
                platform=plat, policy=static_factory(1, 1), ops=2000, clients=8,
                seed=1, warmup_fraction=0.0,
            )
        ).bill
        bill_warm = run(
            RunSpec(
                platform=plat, policy=static_factory(1, 1), ops=2000, clients=8,
                seed=1, warmup_fraction=0.5,
            )
        ).bill
        assert bill_warm.ops < bill_full.ops

    def test_harmony_factory_run(self):
        plat = ec2_harmony_platform()
        rep = run(
            RunSpec(
                platform=plat, policy=harmony_factory(0.2), ops=3000, clients=8, seed=1
            )
        ).report
        assert rep.policy == "harmony(0.2)"
        assert rep.ops_completed > 0
        assert rep.stale_rate_strict <= 0.2 + 0.1

    def test_bismar_factory_run(self):
        plat = grid5000_bismar_platform()
        out = run(
            RunSpec(
                platform=plat, policy=bismar_factory(plat.prices, stale_cap=0.1),
                ops=3000, clients=8, seed=1,
            )
        )
        rep, bill = out.report, out.bill
        assert rep.policy.startswith("bismar")
        assert bill.total > 0

    def test_baseline_factories_run(self):
        plat = ec2_harmony_platform()
        for factory in (rationing_factory(0.01), rwratio_factory(2.0)):
            rep = run(
                RunSpec(platform=plat, policy=factory, ops=1500, clients=4, seed=1)
            ).report
            assert rep.ops_completed > 0

    def test_target_throughput_paces(self):
        plat = ec2_harmony_platform()
        rep = run(
            RunSpec(
                platform=plat, policy=static_factory(1, 1), ops=2000, clients=8,
                seed=1, target_throughput=1000.0, warmup_fraction=0.0,
            )
        ).report
        assert rep.throughput == pytest.approx(1000.0, rel=0.15)

    def test_seed_reproducibility(self):
        plat = ec2_harmony_platform()
        spec = RunSpec(
            platform=plat, policy=static_factory(1, 1), ops=1500, clients=4, seed=5
        )
        out1, out2 = run(spec), run(spec)
        rep1, bill1 = out1.report, out1.bill
        rep2, bill2 = out2.report, out2.bill
        assert rep1.throughput == pytest.approx(rep2.throughput)
        assert rep1.stale_rate == rep2.stale_rate
        assert bill1.total == pytest.approx(bill2.total)
