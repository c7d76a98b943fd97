#!/usr/bin/env python
"""Customized consistency via application behavior modeling (§III-C).

The full offline-to-runtime pipeline on a synthetic multi-phase application:

1. generate an access trace with three planted regimes (browse-heavy day,
   checkout rush, nightly batch) -- the "application data access past
   traces" of the paper;
2. fit the behavior model: per-window features -> timeline -> k-means
   (with silhouette model selection) -> states -> rule-based policy
   assignment, including one administrator-supplied custom rule;
3. replay a *fresh* trace of the same application against a simulated
   cluster with the runtime classifier switching policies per state;
4. compare against the static policies on staleness and cost.

Run:  python examples/behavior_modeling.py
"""

from repro.behavior import BehaviorModel, BehaviorPolicy, PolicyAssignment, default_rulebook
from repro.common.tables import Table
from repro.cost import Biller, EC2_US_EAST_2013
from repro.experiments.platforms import ec2_harmony_platform
from repro.experiments.runner import named_policy_factory
from repro.monitor import ClusterMonitor
from repro.workload.traces import PhasedTraceGenerator, TracePhase, replay_trace

KEYS = 400
PHASES = [
    TracePhase("browse", 60.0, rate=400.0, read_fraction=0.96,
               key_count=KEYS, hot_fraction=0.25, hot_weight=0.6),
    TracePhase("checkout-rush", 30.0, rate=700.0, read_fraction=0.55,
               key_count=KEYS, hot_fraction=0.04, hot_weight=0.9),
    TracePhase("nightly-batch", 30.0, rate=300.0, read_fraction=0.10,
               key_count=KEYS, hot_fraction=0.5, hot_weight=0.4),
]


def replay(platform, trace, policy_factory):
    sim, store = platform.build(seed=7)
    policy = policy_factory(store)
    store.preload([f"user{i}" for i in range(KEYS)], store.default_value_size)
    biller = Biller(store, EC2_US_EAST_2013, KEYS * store.default_value_size)
    replay_trace(store, trace, policy)
    sim.run()
    bill = biller.bill()
    return store.oracle.stale_rate_strict, bill.cost_per_kop


def main() -> None:
    # ---- 1. offline traces ---------------------------------------------------
    train = PhasedTraceGenerator(PHASES).generate(cycles=3, seed=7)
    test = PhasedTraceGenerator(PHASES).generate(cycles=2, seed=8)
    print(f"training trace: {len(train)} ops, test trace: {len(test)} ops")

    # ---- 2. fit, with a custom administrator rule ----------------------------
    rulebook = default_rulebook()
    # The shop's administrator knows checkout phases handle money: cap
    # staleness hard there regardless of what the generic rules would say.
    rulebook.add_custom(
        "admin: money-handling states read at quorum",
        lambda s: s["read_fraction"] < 0.7 and s["write_rate"] > 100.0,
        PolicyAssignment("quorum"),
    )
    model = BehaviorModel.fit(train, window=5.0, rulebook=rulebook)
    print()
    print(model.describe())
    print()
    print("state transition matrix (rows = from-state):")
    for row in model.states.transition_matrix:
        print("  " + "  ".join(f"{p:.2f}" for p in row))

    # ---- 3 + 4. runtime comparison -------------------------------------------
    platform = ec2_harmony_platform()

    def behavior_factory(store):
        monitor = ClusterMonitor(window=5.0)
        store.observe(monitor)
        return BehaviorPolicy(model, monitor, rf=store.strategy.rf_total,
                              update_interval=2.5)

    table = Table(
        "Behavior-modeled policy vs statics on a fresh trace",
        ["policy", "stale % (fig1)", "$/kop"],
    )
    rows = {
        "behavior": replay(platform, test, behavior_factory),
        "eventual": replay(platform, test, named_policy_factory("eventual")),
        "quorum": replay(platform, test, named_policy_factory("quorum")),
        "strong": replay(platform, test, named_policy_factory("strong")),
    }
    for name, (stale, kop) in rows.items():
        table.add_row([name, round(stale * 100, 2), round(kop, 6)])
    print()
    print(table)
    b_stale, b_cost = rows["behavior"]
    e_stale, _ = rows["eventual"]
    _, s_cost = rows["strong"]
    print(
        f"\nbehavior policy: {b_stale:.1%} stale at ${b_cost:.6f}/kop -- "
        f"fresher than eventual ({e_stale:.1%}) and cheaper than strong "
        f"(${s_cost:.6f}/kop), by matching the policy to the detected state."
    )


if __name__ == "__main__":
    main()
