"""Paper-direction checks: every experiment of §III-§IV at its default scale.

Each section regenerates one of the paper's tables or figures at its verb's
one operating point (``repro.experiments.verbs``): the fixture's result is
what ``repro <verb> --seed 11`` prints. It asserts the *shape* the paper
reports (direction and ordering). A bound that is the paper's number
reads it from ``repro.experiments.paper``; a band around it cites it in the
assertion message. One module-scoped fixture per experiment runs it once;
the tests read its rows and claims. Not part of the tier-1 suite (``testpaths = ["tests"]``);
run it with::

    PYTHONPATH=src python -m pytest benchmarks -q

Speed is measured by ``bench/run.py`` (see ``BENCHMARK.json``), not here.
"""

import pytest

from repro.elastic import ElasticSpec, RebalanceConfig
from repro.experiments.paper import PAPER
from repro.experiments.platforms import (
    grid5000_bismar_platform,
    single_dc_platform,
    small_dc_platform,
)
from repro.experiments.runner import (
    harmony_factory,
    named_policy_factory,
    static_factory,
)
from repro.experiments.verbs import VERBS
from repro.facade import RunSpec, run as run_spec
from repro.monitor.collector import ClusterMonitor
from repro.policy import StaticPolicy
from repro.stale.dcmodel import DeploymentInfo, system_stale_rate_dc
from repro.stale.model import params_from_snapshot, system_stale_rate
from repro.workload.client import WorkloadRunner, level_mix
from repro.workload.workloads import bank_transfer_mix, heavy_read_update

#: The seed every experiment fixture runs its verb at: the CLI's default.
SEED = 11


# -- E1-G5K: Harmony on the Grid'5000 preset (§IV-A) --------------------------
#
# Harmony at 20%/40% tolerated staleness vs static eventual/strong. The
# paper reports fewer stale reads than eventual and more throughput than
# strong. The closed-loop clients amplify the throughput ratio; direction
# and ordering are the reproduced claims.


@pytest.fixture(scope="module")
def e1_g5k():
    return VERBS["e1-g5k"](None, SEED)


def test_e1_grid5000_harmony(e1_g5k):
    res = e1_g5k
    eventual = res.rows["eventual"]
    strong = res.rows["strong"]

    # each Harmony tolerance is respected (with sampling margin)
    for tol in (0.2, 0.4):
        row = res.rows[f"harmony({tol:g})"]
        assert row["stale_rate_strict"] <= tol + 0.05

    # ordering: eventual fastest+stalest, strong slowest+fresh
    assert eventual["stale_rate_strict"] > 0.1
    assert strong["stale_rate"] == 0.0
    assert eventual["throughput_ops_s"] > strong["throughput_ops_s"]

    # headline claims hold in direction
    cut = res.claims["stale_reduction_vs_eventual"]
    assert cut > 0.4, PAPER["stale_reduction_vs_eventual"].line(cut)
    gain = res.claims["throughput_gain_vs_strong"]
    assert gain > PAPER["throughput_gain_vs_strong"].value


def test_e1_harmony_latency_between_extremes(e1_g5k):
    eventual = e1_g5k.rows["eventual"]["read_latency_mean_ms"]
    strong = e1_g5k.rows["strong"]["read_latency_mean_ms"]
    for tol in (0.2, 0.4):
        mean = e1_g5k.rows[f"harmony({tol:g})"]["read_latency_mean_ms"]
        assert eventual <= mean * 1.05
        assert mean <= strong * 1.05


# -- E1-EC2: Harmony on the EC2 preset (§IV-A) --------------------------------
#
# Same claims at the EC2 latency scale, with the paper's looser 40%/60%
# tolerances. A 200-key keyspace gives EC2's short propagation windows the
# per-key pressure the paper's 5M-op runs had.


@pytest.fixture(scope="module")
def e1_ec2():
    return VERBS["e1-ec2"](None, SEED)


def test_e1_ec2_harmony(e1_ec2):
    res = e1_ec2
    for tol in (0.4, 0.6):
        row = res.rows[f"harmony({tol:g})"]
        assert row["stale_rate_strict"] <= tol + 0.05
    assert res.rows["strong"]["stale_rate"] == 0.0
    assert (
        res.rows["eventual"]["throughput_ops_s"]
        > res.rows["strong"]["throughput_ops_s"]
    )
    gain = res.claims["throughput_gain_vs_strong"]
    assert gain > PAPER["throughput_gain_vs_strong"].value


def test_e1_ec2_harmony_beats_eventual_on_staleness(e1_ec2):
    eventual = e1_ec2.rows["eventual"]["stale_rate_strict"]
    tightest = e1_ec2.rows["harmony(0.4)"]["stale_rate_strict"]
    assert tightest <= eventual + 1e-9


# -- E2-COST: consistency level vs the bill (§IV-B, first set) ----------------
#
# RF=5 over two us-east-1 AZs, one run per static level. Paper: the bill
# falls as the level weakens, QUORUM is always fresh yet cheaper than ALL,
# and few reads at ONE are estimated fresh.


@pytest.fixture(scope="module")
def e2_cost():
    return VERBS["e2-cost"](None, SEED)


def test_e2_cost_levels(e2_cost):
    res = e2_cost
    totals = [
        res.rows[name]["cost_total_usd"]
        for name in ("ONE", "TWO", "QUORUM", "FOUR", "ALL")
    ]
    # cost decreases when degrading the consistency level
    for weaker, stronger in zip(totals, totals[1:]):
        assert weaker <= stronger * 1.02  # monotone within noise

    # headline ratios in the paper's ballpark
    one_cut = res.claims["cost_reduction_one_vs_all"]
    assert 0.25 <= one_cut <= 0.60, PAPER["cost_reduction_one_vs_all"].line(one_cut)
    quorum_cut = res.claims["cost_reduction_quorum_vs_all"]
    assert 0.05 <= quorum_cut <= 0.30, PAPER["cost_reduction_quorum_vs_all"].line(
        quorum_cut
    )

    # QUORUM always returns an up-to-date replica
    assert res.rows["QUORUM"]["stale_rate"] == 0.0

    # estimated freshness at ONE collapses under heavy read-update
    fresh = res.claims["fresh_reads_at_one_estimated"]
    assert fresh < 0.5, PAPER["fresh_reads_at_one_estimated"].line(fresh)


def test_e2_bill_parts_all_positive(e2_cost):
    for row in e2_cost.rows.values():
        assert row["cost_instance_usd"] > 0
        assert row["cost_storage_usd"] > 0
        assert row["cost_network_usd"] > 0


def test_e2_measured_staleness_ordering(e2_cost):
    stale = {k: r["stale_rate_strict"] for k, r in e2_cost.rows.items()}
    assert stale["ONE"] >= stale["TWO"] >= stale["QUORUM"]
    assert stale["ALL"] == pytest.approx(0.0, abs=1e-6)


# -- E3-EFF: the consistency-cost efficiency metric (§IV-B) -------------------
#
# Paper: the most efficient consistency levels are the acceptably
# consistent ones (below the staleness rate of PAPER's E3 entry).


@pytest.fixture(scope="module")
def e3_samples():
    return VERBS["e3-efficiency"](None, SEED)


def _by_pattern(samples):
    groups = {}
    for row in samples.rows.values():
        groups.setdefault(row["pattern"], []).append(row)
    return groups


def test_e3_efficiency_samples(e3_samples):
    by_pattern = _by_pattern(e3_samples)
    assert len(by_pattern) == 3  # zipfian / uniform / hotspot access patterns
    paper = PAPER["efficient_level_stale_rate"]
    for pattern, group in by_pattern.items():
        assert len(group) == 5
        winner = max(group, key=lambda r: r["efficiency"])
        # the efficient levels are the acceptably consistent ones
        stale = winner["stale_rate_strict"]
        assert stale < paper.value, (
            f"{pattern}: winner {winner['level']}: {paper.line(stale)}"
        )


def test_e3_relative_cost_grows_with_level(e3_samples):
    for group in _by_pattern(e3_samples).values():
        by_level = {r["level"]: r for r in group}
        assert by_level["n=5"]["relative_cost"] >= by_level["n=1"]["relative_cost"]


def test_e3_heavily_stale_weak_levels_lose(e3_samples):
    # wherever a weak level is badly stale, its efficiency must trail the
    # best fresh level of the same pattern
    for group in _by_pattern(e3_samples).values():
        fresh_best = max(
            (r["efficiency"] for r in group if r["stale_rate_strict"] < 0.05),
            default=None,
        )
        for r in group:
            if r["stale_rate_strict"] > 0.5 and fresh_best is not None:
                assert r["efficiency"] < fresh_best


# -- E4-BISMAR: Bismar vs static levels (§IV-B, second set) -------------------
#
# RF=5 over two Grid'5000 sites. Paper: only static ONE is cheaper than
# Bismar, at a high stale rate; Bismar undercuts QUORUM at a low one.


@pytest.fixture(scope="module")
def e4_bismar():
    return VERBS["e4-bismar"](None, SEED)


def test_e4_bismar(e4_bismar):
    res = e4_bismar
    kop = {name: row["cost_per_kop_usd"] for name, row in res.rows.items()}

    # only ONE costs less than Bismar
    assert kop["ONE"] <= kop["bismar"]
    assert kop["bismar"] < kop["QUORUM"]
    assert kop["bismar"] < kop["ALL"]

    # cost reduction vs QUORUM in the paper's ballpark
    cut = res.claims["cost_reduction_vs_quorum"]
    assert 0.10 <= cut <= 0.60, PAPER["cost_reduction_vs_quorum"].line(cut)

    # consistency: Bismar keeps stale reads low while ONE does not
    bismar_stale = res.claims["bismar_stale_rate"]
    one_stale = res.claims["one_stale_rate"]
    assert bismar_stale <= 0.10, PAPER["bismar_stale_rate"].line(bismar_stale)
    assert one_stale > 0.15, PAPER["one_stale_rate"].line(one_stale)
    assert bismar_stale < one_stale


def test_e4_quorum_always_fresh(e4_bismar):
    assert e4_bismar.rows["QUORUM"]["stale_rate"] == 0.0
    assert e4_bismar.rows["ALL"]["stale_rate"] == 0.0


def test_e4_bismar_adapts_levels(e4_bismar):
    # Bismar must actually have exercised the adaptive dial (not sat on one
    # static level the whole run) OR have chosen an intermediate level.
    mix = e4_bismar.rows["bismar"]["read_levels"]
    assert mix, "bismar recorded no level usage"
    labels = set(mix)
    assert labels != {"n=1"}, "bismar degenerated to static ONE"


# -- E5-BEHAVIOR: the behavior-modeling pipeline (§III-C) ---------------------
#
# The paper defers this evaluation: clustering must recover the planted
# phases of a synthetic webshop trace, and the per-state policy must be
# fresher than eventual and cheaper than strong.


@pytest.fixture(scope="module")
def e5_behavior():
    return VERBS["e5-behavior"](None, SEED)


def _stale_and_cost(row):
    return row["stale_rate"], row["cost_per_kop_usd"]


def test_e5_behavior_modeling(e5_behavior):
    rows = e5_behavior.rows
    # offline step: the planted phases are recovered
    assert rows["behavior"]["clusters"] >= 2
    assert rows["behavior"]["phase_purity"] >= 0.85

    b_stale, b_cost = _stale_and_cost(rows["behavior"])
    e_stale, e_cost = _stale_and_cost(rows["eventual"])
    s_stale, s_cost = _stale_and_cost(rows["strong"])

    # fresher than eventual, cheaper than strong
    assert b_stale <= e_stale + 1e-9
    assert b_cost <= s_cost

    # strong is fully fresh (sanity of the endpoint)
    assert s_stale == pytest.approx(0.0, abs=1e-6)


def test_e5_behavior_beats_every_static_on_pareto(e5_behavior):
    """No static policy Pareto-dominates the behavior-modeled one."""
    b_stale, b_cost = _stale_and_cost(e5_behavior.rows["behavior"])
    for name, row in e5_behavior.rows.items():
        if name == "behavior":
            continue
        stale, cost = _stale_and_cost(row)
        dominated = stale < b_stale - 1e-9 and cost < b_cost * 0.98
        assert not dominated, f"{name} Pareto-dominates behavior policy"


# -- FIG1: the stale-read estimation model (Figure 1, §III-A) -----------------
#
# Closed form, Monte Carlo and the store simulator's oracle side by side
# over write rates and read levels, on the Grid'5000 WAN preset. The model
# is conservative by ~2x against the oracle: ack round-trips inflate the
# windows a coordinator can observe.


@pytest.fixture(scope="module")
def fig1_rows():
    return VERBS["fig1"](None, SEED).rows.values()


def test_fig1_model_validation(fig1_rows):
    for row in fig1_rows:
        assert 0.0 <= row["closed_form"] <= 1.0
        assert 0.0 <= row["stale_rate"] <= 1.0
        if row["stale_rate"] > 0.02:
            # within a factor of ~2.5 of ground truth
            assert row["closed_form"] == pytest.approx(row["stale_rate"], rel=1.5)
        # MC and closed form implement the same model: tight agreement
        assert row["monte_carlo"] == pytest.approx(row["closed_form"], abs=0.08)
    by_rate = {}
    for row in fig1_rows:
        by_rate.setdefault(row["write_rate"], []).append(row)
    for rate_rows in by_rate.values():
        rate_rows.sort(key=lambda r: r["read_level"])
        for a, b in zip(rate_rows, rate_rows[1:]):
            assert a["closed_form"] >= b["closed_form"] - 1e-9


def test_fig1_staleness_grows_with_write_rate(fig1_rows):
    at_one = sorted(
        (r for r in fig1_rows if r["read_level"] == 1), key=lambda r: r["write_rate"]
    )
    sims = [r["stale_rate"] for r in at_one]
    assert sims == sorted(sims)
    assert sims[-1] > sims[0]


# -- ABL: ablations on the Grid'5000 Bismar preset ----------------------------


@pytest.fixture(scope="module")
def platform():
    return grid5000_bismar_platform()


@pytest.fixture(scope="module")
def abl_definitions(platform):
    rows = []
    for lv in (1, 2, 3):
        rep = run_spec(
            RunSpec(
                platform=platform,
                policy=static_factory(lv, lv, name=f"n={lv}"),
                ops=8000, clients=16, seed=3,
            )
        ).report
        rows.append((lv, rep.stale_rate_strict, rep.stale_rate))
    return rows


def test_abl_staleness_definitions(abl_definitions):
    # strict (Figure-1) bars dominate committed ones; quorum-intersecting
    # levels are exactly fresh under the committed definition
    for lv, strict, committed in abl_definitions:
        assert strict >= committed - 1e-9
        if lv == 3:  # r + w = 6 > RF=5: structurally fresh (committed)
            assert committed == 0.0


@pytest.fixture(scope="module")
def abl_windows(platform):
    rows = []
    for window in (0.5, 2.0, 8.0):
        rep = run_spec(
            RunSpec(
                platform=platform,
                policy=harmony_factory(0.10, monitor_window=window),
                ops=12_000, clients=16, seed=3,
                target_throughput=8000.0,
            )
        ).report
        rows.append((window, rep.stale_rate_strict, level_mix(rep.read_levels)))
    return rows


def test_abl_monitoring_window(abl_windows):
    for _, stale, _ in abl_windows:
        assert stale <= 0.10 + 0.05  # tolerance honored at every window


@pytest.fixture(scope="module")
def abl_read_repair(platform):
    out = {}
    for chance in (0.0, 0.5):
        sim, store = platform.build(seed=4)
        store.read_repair_chance = chance
        rep = WorkloadRunner(
            store, heavy_read_update(record_count=120),
            policy=StaticPolicy(1, 1), n_clients=16, ops_total=10_000,
            seed=4, target_throughput=6000.0, warmup_fraction=0.2,
        ).run()
        out[chance] = (rep.stale_rate_strict, rep.total_bytes)
    return out


def test_abl_read_repair(abl_read_repair):
    # repair costs traffic and buys freshness
    out = abl_read_repair
    assert out[0.5][0] <= out[0.0][0] + 0.02
    assert out[0.5][1] > out[0.0][1]


@pytest.fixture(scope="module")
def abl_estimators(platform):
    sim, store = platform.build(seed=5)
    monitor = ClusterMonitor(window=2.0)
    store.observe(monitor)
    WorkloadRunner(
        store, heavy_read_update(record_count=120),
        policy=StaticPolicy(1, 1), n_clients=16, ops_total=10_000,
        seed=5, target_throughput=6000.0,
    ).run()
    snap = monitor.snapshot()
    params = params_from_snapshot(snap, write_level=1, fallback_rf=5, strict=True)
    info = DeploymentInfo.from_store(store)
    rows = []
    for r in range(1, 6):
        uniform = system_stale_rate(params, r, 1)
        dc_aware = system_stale_rate_dc(info, snap.write_rate, snap.key_profile, r)
        rows.append((r, uniform, dc_aware))
    return rows


def test_abl_estimator_family(abl_estimators):
    rows = abl_estimators
    # once the read provably contacts both DCs (r >= 4 on a {3,2} layout),
    # the DC-aware model knows one contacted replica applied the write
    # ~locally, so staleness collapses to zero -- while the uniform-subset
    # model keeps charging for unlucky subsets snitch ordering rules out.
    by_level = {r: (u, d) for r, u, d in rows}
    assert by_level[4][1] == pytest.approx(0.0, abs=1e-6)
    assert by_level[5][1] == pytest.approx(0.0, abs=1e-6)
    assert by_level[4][0] > 0.0
    # and for single-replica reads the two models agree on substance
    assert by_level[1][1] == pytest.approx(by_level[1][0], rel=1.0)
    # both families are monotone in the read level
    for col in (1, 2):
        vals = [row[col] for row in rows]
        for a, b in zip(vals, vals[1:]):
            assert a >= b - 1e-9


# -- Harness shapes no tier-1 test pins at this scale -------------------------


def test_txn_report_counts_the_measured_window():
    txns = 1500
    outcome = run_spec(
        RunSpec(
            platform=single_dc_platform(),
            policy=named_policy_factory("eventual"),
            txn_workload=bank_transfer_mix(record_count=800),
            ops=txns,
            clients=16,
            seed=11,
        )
    )
    txn = outcome.report.txn
    assert txn["txns"] == int(txns * 0.8)  # post-warmup population
    assert txn["commits"] > 0


def test_scripted_scale_out_streams_and_drains():
    def script(cluster):
        cluster.store.sim.schedule_at(0.05, cluster.bootstrap_node, 0)

    out = run_spec(
        RunSpec(
            platform=small_dc_platform(),
            policy=harmony_factory(0.3),
            elastic=ElasticSpec(
                script=script,
                rebalance=RebalanceConfig(pump_interval=0.005, attempt_timeout=0.1),
            ),
            ops=3000,
            clients=24,
            seed=3,
        )
    )
    block = out.report.elastic
    assert block["scale_outs"] == 1
    assert block["pending_final"] == 0
    assert block["keys_streamed"] > 0
