#!/usr/bin/env python
"""Cost-aware consistency: what each level costs, and what Bismar saves.

Reproduces the paper's §IV-B reasoning interactively:

1. run the same heavy read-update workload at every static consistency
   level on an RF=5, two-AZ EC2-style deployment;
2. decompose each run's bill into the paper's three parts
   (instances / storage / network);
3. compute the consistency-cost efficiency of every level;
4. run Bismar and show where it lands: almost as cheap as ONE, almost as
   fresh as QUORUM.

Run:  python examples/cost_aware_deployment.py
"""

import repro
from repro.bismar.efficiency import rank_levels
from repro.common.tables import Table

OPS = 20_000
TARGET = 8_000.0  # offered load cap, as YCSB's target parameter


def main() -> None:
    # The Grid'5000 Bismar preset (RF=5 over two sites with a real WAN hop):
    # the deployment where the consistency/cost trade-off is widest, and the
    # one the paper evaluates Bismar on.
    platform = repro.grid5000_bismar_platform()

    runs = {}
    for level in (1, 2, 3, 4, 5):
        out = repro.run(
            repro.RunSpec(
                platform=platform,
                policy=repro.static_factory(level, level, name=f"n={level}"),
                ops=OPS,
                seed=11,
                target_throughput=TARGET,
            )
        )
        runs[level] = (out.report, out.bill)

    table = Table(
        "Bill decomposition per consistency level (RF=5, two sites, heavy read-update)",
        ["level", "stale % (fig1)", "instances $", "storage $", "network $",
         "total $", "$/kop"],
    )
    for level, (report, bill) in runs.items():
        table.add_row(
            [
                f"n={level}",
                round(report.stale_rate_strict * 100, 1),
                round(bill.instance_cost, 6),
                round(bill.storage_cost, 6),
                round(bill.network_cost, 6),
                round(bill.total, 6),
                round(bill.cost_per_kop, 6),
            ]
        )
    print(table)

    # --- the paper's efficiency metric over the measured samples ----------
    stale = [runs[lv][0].stale_rate_strict for lv in (1, 2, 3, 4, 5)]
    costs = [runs[lv][1].cost_per_kop for lv in (1, 2, 3, 4, 5)]
    rows = rank_levels(stale, costs)
    eff = Table(
        "Consistency-cost efficiency (fresh reads per relative dollar)",
        ["rank", "level", "stale %", "rel cost", "efficiency"],
    )
    for i, row in enumerate(rows, 1):
        eff.add_row(
            [
                i,
                f"n={row.read_level}",
                round(row.stale_rate * 100, 1),
                round(row.relative_cost, 3),
                round(row.efficiency, 3),
            ]
        )
    print()
    print(eff)

    # --- Bismar at runtime --------------------------------------------------
    out = repro.run(
        repro.RunSpec(
            platform=platform,
            policy=repro.bismar_factory(platform.prices, stale_cap=0.05),
            ops=OPS,
            seed=11,
            target_throughput=TARGET,
        )
    )
    report, bill = out.report, out.bill
    one_bill = runs[1][1]
    quorum_bill = runs[3][1]
    print(
        f"\nBismar: ${bill.cost_per_kop:.6f}/kop at "
        f"{report.stale_rate_strict:.1%} stale (levels used: {report.level_mix()})"
    )
    print(
        f"  vs static ONE    ${one_bill.cost_per_kop:.6f}/kop at "
        f"{runs[1][0].stale_rate_strict:.1%} stale"
    )
    if quorum_bill.cost_per_kop > 0:
        saving = 1.0 - bill.cost_per_kop / quorum_bill.cost_per_kop
        print(
            f"  vs static QUORUM ${quorum_bill.cost_per_kop:.6f}/kop at "
            f"{runs[3][0].stale_rate_strict:.1%} stale "
            f"-> Bismar saves {saving:.0%} (paper: up to 31%)"
        )


if __name__ == "__main__":
    main()
