"""Command-line entry points: regenerate any paper experiment from a shell.

Usage::

    python -m repro.cli list
    python -m repro.cli e1-g5k [--ops 24000] [--seed 11]
    python -m repro.cli e2-cost
    python -m repro.cli e4-bismar --ops 40000
    python -m repro.cli fig1
    python -m repro.cli e5-behavior
    python -m repro.cli scenarios
    python -m repro.cli txn --mix bank-transfer --policy all
    python -m repro.cli sweep --grid tolerance=0.2,0.4 --jobs 4 --out results/
    python -m repro.cli sweep --scenario node-failure-storm --obs --out results/
    python -m repro.cli report results/obs [--csv] [--validate] [--slo]
    python -m repro.cli diff results_a/obs results_b/obs [--json]

Each experiment command builds the matching platform preset, runs the
experiment harness, and prints the same table the paper's evaluation
reports (plus the measured claim lines). This is the no-pytest path to the
results; ``benchmarks/test_paper_shapes.py`` asserts their paper shapes.

``sweep`` runs the declarative scenario registry instead: it expands the
``--grid`` axes over every registered (or ``--scenario``-selected)
scenario, fans the runs out over ``--jobs`` worker processes with
deterministic per-run seeds, and writes aggregated JSON/CSV result tables
to ``--out``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

from repro.common.errors import ConfigError


def _e1_g5k(args) -> None:
    from repro.experiments.harmony_eval import run_harmony_eval
    from repro.experiments.platforms import grid5000_harmony_platform

    res = run_harmony_eval(
        grid5000_harmony_platform(), tolerances=(0.2, 0.4), ops=args.ops, seed=args.seed
    )
    print(res.table())
    for claim in res.claims():
        print(" ", claim)


def _e1_ec2(args) -> None:
    from repro.experiments.harmony_eval import run_harmony_eval
    from repro.experiments.platforms import ec2_harmony_platform
    from repro.workload.workloads import heavy_read_update

    res = run_harmony_eval(
        ec2_harmony_platform(),
        tolerances=(0.4, 0.6),
        spec=heavy_read_update(record_count=200),
        ops=args.ops,
        seed=args.seed,
    )
    print(res.table())
    for claim in res.claims():
        print(" ", claim)


def _e2_cost(args) -> None:
    from repro.experiments.cost_eval import run_cost_eval
    from repro.experiments.platforms import ec2_cost_platform

    res = run_cost_eval(ec2_cost_platform(), ops=args.ops, seed=args.seed)
    print(res.table())
    for claim in res.claims():
        print(" ", claim)


def _e3_efficiency(args) -> None:
    from repro.experiments.bismar_eval import efficiency_table, run_efficiency_samples
    from repro.experiments.platforms import grid5000_bismar_platform

    samples = run_efficiency_samples(
        grid5000_bismar_platform(), ops=args.ops, seed=args.seed
    )
    print(efficiency_table(samples))


def _e4_bismar(args) -> None:
    from repro.experiments.bismar_eval import run_bismar_eval
    from repro.experiments.platforms import grid5000_bismar_platform

    res = run_bismar_eval(grid5000_bismar_platform(), ops=args.ops, seed=args.seed)
    print(res.table())
    for claim in res.claims():
        print(" ", claim)


def _fig1(args) -> None:
    from repro.experiments.model_eval import fig1_table, run_fig1_validation
    from repro.experiments.platforms import grid5000_harmony_platform

    rows = run_fig1_validation(
        grid5000_harmony_platform(), ops=args.ops, seed=args.seed
    )
    print(fig1_table(rows))


def _e5_behavior(args) -> None:
    from repro.experiments.model_eval import run_behavior_eval
    from repro.experiments.platforms import ec2_harmony_platform

    res = run_behavior_eval(ec2_harmony_platform(), seed=args.seed)
    print(res.table())


def _scenarios(args) -> None:
    from repro.experiments import scenarios

    if args.json:
        import json

        doc = []
        for name in scenarios.names():
            spec = scenarios.get(name)
            built = spec.build(spec.resolve_params())
            doc.append(
                {
                    "name": name,
                    "description": spec.description,
                    "params": {k: spec.defaults[k] for k in sorted(spec.defaults)},
                    "tags": sorted(spec.tags),
                    "kind": (
                        "elastic"
                        if built.elastic is not None
                        else "txn"
                        if built.txn_workload is not None
                        else "plain"
                    ),
                    "client_mode": built.client_mode,
                    "clients": built.clients,
                    "commit_protocol": spec.defaults.get("commit_protocol"),
                    "slo": spec.slo.to_dict() if spec.slo is not None else None,
                }
            )
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    for name in scenarios.names():
        spec = scenarios.get(name)
        built = spec.build(spec.resolve_params())
        defaults = " ".join(f"{k}={v}" for k, v in sorted(spec.defaults.items()))
        mode = "" if built.client_mode == "per_client" else f" <{built.client_mode}:{built.clients}>"
        print(f"{name:22s} {spec.description}  [{defaults}]{mode}")


def _txn(args) -> None:
    from dataclasses import replace

    from repro.common.tables import Table
    from repro.experiments.platforms import ec2_harmony_platform
    from repro.experiments.runner import named_policy_factory
    from repro.facade import RunSpec, run
    from repro.workload.workloads import TXN_WORKLOADS

    try:
        spec = TXN_WORKLOADS[args.mix].scaled(2000)
    except KeyError:
        raise ConfigError(
            f"unknown mix {args.mix!r}; choose from {sorted(TXN_WORKLOADS)}"
        ) from None
    if spec.distribution == "zipfian":
        # YCSB's theta=0.99 keeps the hottest keys permanently prepare-locked
        # at this concurrency; temper the skew so the table shows policy
        # differences rather than wall-to-wall lock conflicts.
        spec = replace(spec, distribution_kwargs={"theta": 0.6})
    names = ["eventual", "quorum", "strong", "harmony"]
    selected = names if args.policy == "all" else [args.policy]
    factories = {name: named_policy_factory(name) for name in selected}

    txns = args.ops if args.ops is not None else 2000
    protocol = args.protocol
    label = (protocol or "2pc").upper().replace("COOP", "coop")
    table = Table(
        f"atomic {spec.name} transactions, {label} over two EC2 AZs ({txns} txns)",
        [
            "policy",
            "commits",
            "aborts",
            "abort_rate",
            "lost_updates",
            "stale_rate",
            "commit_p50_ms",
            "commit_p99_ms",
        ],
    )
    for name, factory in factories.items():
        outcome = run(
            RunSpec(
                platform=ec2_harmony_platform(),
                policy=factory,
                txn_workload=spec,
                ops=txns,
                clients=min(16, txns),
                seed=args.seed,
                commit_protocol=protocol,
            )
        )
        t = outcome.report.txn
        lat = outcome.tstore.commit_latency
        table.add_row(
            [
                outcome.report.policy,
                t["commits"],
                sum(t["aborts"].values()),
                f"{t['abort_rate']:.3f}",
                t["lost_updates"],
                f"{outcome.report.stale_rate:.4f}",
                f"{lat.percentile(50) * 1e3:.2f}",
                f"{t['commit_latency_p99_ms']:.2f}",
            ]
        )
    print(table.render())


def _elastic(args) -> None:
    from repro.common.tables import Table
    from repro.experiments import scenarios

    def is_elastic(spec) -> bool:
        return spec.build(spec.resolve_params()).elastic is not None

    name = args.scenario
    spec = scenarios.get(name)
    if not is_elastic(spec):
        elastic_names = [n for n in scenarios.names() if is_elastic(scenarios.get(n))]
        raise ConfigError(
            f"{name!r} is not an elastic scenario; choose from {elastic_names}"
        )
    m = spec.run(seed=args.seed, ops=args.ops).metrics()
    e = m["elastic"]

    table = Table(
        f"{name}: {spec.description}",
        ["metric", "value"],
    )
    table.add_row(["policy", m["policy"]])
    table.add_row(["ops completed", m["ops_completed"]])
    table.add_row(["throughput (ops/s)", f"{m['throughput_ops_s']:.0f}"])
    table.add_row(["read p99 (ms)", f"{m['read_latency_p99_ms']:.2f}"])
    table.add_row(["stale rate", f"{m['stale_rate']:.4f}"])
    table.add_row(["cost per kop ($)", f"{m['cost_per_kop_usd']:.6f}"])
    table.add_row(["nodes initial -> final", f"{e['nodes_initial']} -> {e['nodes_final']}"])
    table.add_row(["scale-outs / scale-ins", f"{e['scale_outs']} / {e['scale_ins']}"])
    table.add_row(["token ranges moved", e["ranges_moved"]])
    table.add_row(["keys streamed", e["keys_streamed"]])
    table.add_row(["bytes streamed", e["bytes_streamed"]])
    table.add_row(["re-streams (retries)", e["restreams"]])
    table.add_row(["pending at end", e["pending_final"]])
    print(table.render())

    events = e.get("events", [])
    # Autoscaler decisions annotate the same membership events with the
    # observed utilization that triggered them (matched by time + node).
    utils = {
        (d["t"], d["node"]): d.get("util")
        for d in (e.get("autoscaler") or {}).get("decisions", [])
    }
    if events:
        print("\nmembership timeline:")
        for ev in events:
            util = utils.get((ev["t"], ev["node"]))
            detail = ev["reason"] + (f", util={util:.2f}" if util is not None else "")
            print(
                f"  t={ev['t']:8.3f}s  {ev['kind']:<10s} node {ev['node']}  ({detail})"
            )


def _report(args) -> None:
    import os

    from repro.obs.report import (
        find_timelines,
        load_timeline,
        render_text,
        samples_csv,
        validate_timeline,
    )

    paths = find_timelines(args.path)
    if not paths:
        raise ConfigError(f"no timeline.jsonl found under {args.path}")
    if args.slo:
        _report_slo(args, paths)
        return
    failed = False
    for i, path in enumerate(paths):
        records = load_timeline(path)
        problems = validate_timeline(records)
        if args.validate:
            status = "ok" if not problems else "INVALID"
            print(f"{path}: {status} ({len(records)} records)")
            for problem in problems:
                print(f"  - {problem}")
            failed = failed or bool(problems)
            continue
        source = os.path.relpath(path, args.path) if path != args.path else path
        if args.csv:
            print(samples_csv(records), end="")
        else:
            if i:
                print()
            print(render_text(records, source=source))
    if failed:
        raise SystemExit(1)


def _report_slo(args, paths) -> None:
    """Grade each timeline against its SLO; exit 1 on any breach.

    Each timeline is validated first; the spec is the ``meta_slo`` the
    scenario harness stamps into its header. Exit codes: 0 = every graded
    timeline passed, 1 = at least one breach, 2 = an invalid timeline, or
    no timeline carries an SLO.
    """
    import os

    from repro.obs.report import load_timeline, validate_timeline
    from repro.obs.slo import SLOSpec, evaluate_slo

    graded = 0
    breached = False
    for i, path in enumerate(paths):
        records = load_timeline(path)
        problems = validate_timeline(records)
        if problems:
            raise ConfigError(
                f"{path}: invalid timeline ({'; '.join(problems[:3])})"
            )
        source = os.path.relpath(path, args.path) if path != args.path else path
        if i:
            print()
        slo = records[0].get("meta_slo")
        if not isinstance(slo, dict):
            print(f"{source}: no SLO in the header")
            continue
        report = evaluate_slo(records, SLOSpec.from_dict(slo))
        print(report.render(source))
        graded += 1
        breached = breached or not report.ok
    if not graded:
        raise ConfigError(f"no timeline under {args.path} carries an SLO spec")
    if breached:
        raise SystemExit(1)


def _diff(args) -> None:
    from repro.obs.diff import diff_paths, render_diff

    result = diff_paths(args.run_a, args.run_b)
    if args.json:
        import json

        print(json.dumps(result, indent=2, sort_keys=True))
        return
    for i, pair in enumerate(result["pairs"]):
        if i:
            print()
        print(render_diff(pair["diff"], label=pair["label"]))
    for side, runs in (("A", result["only_a"]), ("B", result["only_b"])):
        if runs:
            print(f"\nonly in {side}: {', '.join(runs)}")


def _xval(args) -> None:
    """Cross-validate the sim backend against the asyncio localhost runtime."""
    from repro.common.tables import Table
    from repro.runtime.xval import cross_validate, default_xval_spec

    spec = default_xval_spec(
        txns=args.txns,
        clients=args.clients,
        seed=args.seed,
        time_scale=args.time_scale,
        wall_timeout=args.timeout,
        commit_protocol=args.protocol or None,
    )
    try:
        levels = tuple(float(x) for x in args.levels.split(","))
    except ValueError:
        raise ConfigError(
            f"--levels must be comma-separated floats, got {args.levels!r}"
        ) from None
    report = cross_validate(spec, hot_fractions=levels)

    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        columns = {
            "hot_frac": "{c.hot_fraction:.2f}",
            "abort sim": "{c.sim_abort_rate:.3f}",
            "abort aio": "{c.aio_abort_rate:.3f}",
            "stale sim": "{c.sim_stale_rate:.3f}",
            "stale aio": "{c.aio_stale_rate:.3f}",
            "commit sim ms": "{c.sim_commit_ms:.1f}",
            "commit aio ms": "{c.aio_commit_ms:.1f}",
        }
        table = Table(
            f"sim vs asyncio cross-validation "
            f"({args.protocol or '2pc'}, {args.txns} txns/level)",
            [*columns, "verdict"],
        )
        for c in report.checks:
            verdict = "ok" if c.ok else "; ".join(c.failures)
            table.add_row([fmt.format(c=c) for fmt in columns.values()] + [verdict])
        print(table.render())
        for failure in report.trend_failures:
            print(f"  trend: {failure}")
        print(
            f"tolerances: abort ±{report.abort_tolerance}, "
            f"stale ±{report.stale_tolerance}, "
            f"trend deadband {report.trend_deadband}"
        )
        print("cross-validation " + ("PASSED" if report.passed else "FAILED"))
    if not report.passed:
        raise SystemExit(1)


def _sweep(args) -> None:
    import os

    from repro.experiments.sweep import SweepRunner, parse_grid, plan_sweep

    if args.obs and not args.out:
        raise ConfigError("--obs needs --out (the artifact directory root)")
    grid = parse_grid(args.grid or [])
    plan = plan_sweep(
        scenario_names=args.scenario or None,
        grid=grid,
        root_seed=args.seed,
        ops=args.ops,
        client_mode=args.client_mode,
        obs_dir=os.path.join(args.out, "obs") if args.obs else None,
        backend=args.backend,
    )
    print(f"sweep: {len(plan)} runs over {args.jobs} worker(s)")
    result = SweepRunner(jobs=args.jobs).run(plan)
    print(result.table().render())
    if args.out:
        paths = result.write(args.out)
        print(f"wrote {paths['json']} and {paths['csv']}")


#: Verbs whose handler reads ``--ops`` / ``--seed``; no other verb takes them.
TAKES_OPS = {"e1-g5k", "e1-ec2", "e2-cost", "e3-efficiency", "e4-bismar", "fig1",
             "txn", "elastic", "sweep"}
TAKES_SEED = TAKES_OPS | {"e5-behavior", "xval"}

COMMANDS: Dict[str, Callable] = {
    "e1-g5k": _e1_g5k,
    "e1-ec2": _e1_ec2,
    "e2-cost": _e2_cost,
    "e3-efficiency": _e3_efficiency,
    "e4-bismar": _e4_bismar,
    "e5-behavior": _e5_behavior,
    "fig1": _fig1,
    "scenarios": _scenarios,
    "txn": _txn,
    "elastic": _elastic,
    "sweep": _sweep,
    "xval": _xval,
    "report": _report,
    "diff": _diff,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of 'Self-Adaptive Cost-Efficient "
        "Consistency Management in the Cloud' (IPDPS 2013 PhD Forum).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    helps = {
        "scenarios": "list the registered sweep scenarios",
        "txn": "run an atomic multi-key transaction mix under 2PC",
        "elastic": "run an elastic scenario and print its membership timeline",
        "sweep": "run registered scenarios over a parameter grid in parallel",
        "xval": "cross-validate sim predictions against the asyncio "
        "localhost runtime (exit 1 on tolerance breach)",
        "report": "render a run's observability timeline (text, CSV, "
        "validate, SLO verdicts)",
        "diff": "diff two runs' timelines: metric deltas and anomaly changes",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=helps.get(name, f"run experiment {name}"))
        if name in TAKES_OPS:
            p.add_argument("--ops", type=int, default=None, help="operation count")
        if name in TAKES_SEED:
            p.add_argument("--seed", type=int, default=11, help="root seed")
        if name == "txn":
            p.add_argument(
                "--mix",
                default="bank-transfer",
                metavar="NAME",
                help="transaction mix: bank-transfer, read-modify-write, "
                "order-checkout",
            )
            p.add_argument(
                "--policy",
                default="all",
                metavar="NAME",
                help="read-level policy: eventual, quorum, strong, harmony, "
                "or all (compare)",
            )
            p.add_argument(
                "--protocol",
                default=None,
                metavar="NAME",
                help="commit protocol: 2pc, 2pc-coop, or 3pc "
                "(default: the TxnConfig default, 2pc)",
            )
        if name == "scenarios":
            p.add_argument(
                "--json",
                action="store_true",
                help="machine-readable listing (name, params, description, "
                "tags, kind)",
            )
        if name == "elastic":
            p.add_argument(
                "--scenario",
                default="elastic-flash-crowd",
                metavar="NAME",
                help="elastic scenario to run (default: elastic-flash-crowd)",
            )
        if name == "report":
            p.add_argument(
                "path",
                metavar="PATH",
                help="a timeline.jsonl file, or a directory to search "
                "(e.g. a sweep's --out)",
            )
            p.add_argument(
                "--csv",
                action="store_true",
                help="emit the sample series as CSV instead of the "
                "annotated text timeline",
            )
            p.add_argument(
                "--validate",
                action="store_true",
                help="schema-check every timeline; non-zero exit on problems",
            )
            p.add_argument(
                "--slo",
                action="store_true",
                help="grade each timeline against the SLO spec in its "
                "header (meta_slo); exit 0 = pass, 1 = breach, "
                "2 = invalid timeline or no SLO",
            )
        if name == "diff":
            p.add_argument(
                "run_a",
                metavar="RUN_A",
                help="baseline: a timeline.jsonl or a directory of runs",
            )
            p.add_argument(
                "run_b",
                metavar="RUN_B",
                help="candidate: a timeline.jsonl or a directory of runs",
            )
            p.add_argument(
                "--json",
                action="store_true",
                help="emit the structured diff as JSON instead of tables",
            )
        if name == "xval":
            p.add_argument(
                "--txns", type=int, default=40,
                help="transactions per contention level per backend (default 40)",
            )
            p.add_argument(
                "--clients", type=int, default=6,
                help="concurrent closed-loop clients (default 6)",
            )
            p.add_argument(
                "--levels", default="0.0,0.5,0.95", metavar="F1,F2,...",
                help="hot_fraction contention levels to sweep "
                "(default 0.0,0.5,0.95)",
            )
            p.add_argument(
                "--protocol", default=None, metavar="NAME",
                help="commit protocol: 2pc, 2pc-coop, or 3pc (default 2pc)",
            )
            p.add_argument(
                "--time-scale", type=float, default=0.25, dest="time_scale",
                help="wall seconds per protocol second on the asyncio side "
                "(default 0.25)",
            )
            p.add_argument(
                "--timeout", type=float, default=120.0,
                help="hard wall-clock cap per asyncio run in seconds "
                "(default 120)",
            )
            p.add_argument(
                "--json",
                action="store_true",
                help="emit the structured report as JSON",
            )
        if name == "sweep":
            p.add_argument(
                "--obs",
                action="store_true",
                help="record per-run observability artifacts "
                "(timeline.jsonl + trace.json under OUT/obs; needs --out)",
            )
            p.add_argument(
                "--scenario",
                action="append",
                default=None,
                metavar="NAME",
                help="scenario to run (repeatable; default: all registered)",
            )
            p.add_argument(
                "--grid",
                action="append",
                default=None,
                metavar="KEY=V1,V2",
                help="sweep axis (repeatable), e.g. --grid tolerance=0.2,0.4",
            )
            p.add_argument(
                "--jobs", type=int, default=1, help="worker process count"
            )
            p.add_argument(
                "--client-mode",
                choices=("per_client", "cohort"),
                default=None,
                dest="client_mode",
                help="force every run's client model (default: each "
                "scenario's declared mode; txn scenarios always per-client)",
            )
            p.add_argument(
                "--backend",
                choices=("sim", "asyncio"),
                default=None,
                help="force every run's execution engine (default: sim; "
                "asyncio runs on the localhost runtime, elastic scenarios "
                "excepted)",
            )
            p.add_argument(
                "--out", default=None, metavar="DIR",
                help="directory for results.json / results.csv",
            )
    return parser


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in COMMANDS:
            print(name)
        return 0
    try:
        COMMANDS[args.command](args)
    except ConfigError as exc:
        # User-input problems (bad --grid axis, unknown scenario, --jobs 0)
        # deserve the message, not the traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # `repro report ... | head` closing the pipe is not an error.
        sys.stderr.close()
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
