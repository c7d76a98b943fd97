"""Tests for the command-line interface."""

import argparse
import ast
import inspect
import os
import subprocess
import sys
import zlib

import pytest

from repro import cli
from repro.cli import COMMANDS, TAKES_OPS, TAKES_SEED, build_parser, main


#: crc32 of each experiment verb's stdout at the small scale its run test
#: uses below. The tables and claim lines are the paper's results as a user
#: sees them; a refactor of the experiment harness must not move a byte.
STDOUT_CRC32 = {
    "e1-g5k": 4165725061,
    "fig1": 3611433204,
    "e1-ec2": 3982186677,
    "e2-cost": 2324826368,
    "e3-efficiency": 2333043734,
    "e4-bismar": 1498098163,
}


def _args_read(handler: str) -> set:
    """``args.<name>`` reads in ``handler`` and the cli helpers it passes
    ``args`` to."""
    tree = ast.parse(inspect.getsource(cli))
    defs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    todo, seen, read = [handler], set(), set()
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for node in ast.walk(defs[fn]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in defs
                  and any(isinstance(a, ast.Name) and a.id == "args"
                          for a in node.args)):
                todo.append(node.func.id)
    return read


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        for name in COMMANDS:
            argv = [name]
            if name == "report":
                argv.append("some/path")  # report takes a positional PATH
            elif name == "diff":
                argv += ["run/a", "run/b"]  # diff takes two positionals
            if name in TAKES_OPS:
                argv += ["--ops", "100"]
            if name in TAKES_SEED:
                argv += ["--seed", "3"]
            args = parser.parse_args(argv)
            assert args.command == name
            assert getattr(args, "ops", None) == (100 if name in TAKES_OPS else None)
            assert getattr(args, "seed", None) == (3 if name in TAKES_SEED else None)

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_options_are_what_the_handler_reads(self, name):
        # An option the handler never reads is accepted and silently
        # ignored; one it reads but the parser lacks crashes the verb.
        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ).choices[name]
        accepted = {a.dest for a in sub._actions if a.dest != "help"}
        assert accepted == _args_read(COMMANDS[name].__name__)

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenarios", "--ops", "100"],
            ["scenarios", "--seed", "3"],
            ["report", "some/path", "--ops", "100"],
            ["report", "some/path", "--seed", "3"],
            ["diff", "run/a", "run/b", "--ops", "100"],
            ["diff", "run/a", "run/b", "--seed", "3"],
            ["xval", "--ops", "100"],
            ["e5-behavior", "--ops", "100"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_option_the_handler_ignores_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_sweep_flags_parse(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--grid", "tolerance=0.2,0.4",
                "--grid", "policy=strong",
                "--scenario", "geo-replication",
                "--jobs", "4",
                "--out", "results",
            ]
        )
        assert args.command == "sweep"
        assert args.grid == ["tolerance=0.2,0.4", "policy=strong"]
        assert args.scenario == ["geo-replication"]
        assert args.jobs == 4
        assert args.out == "results"


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in COMMANDS:
            assert name in out

    def test_e1_g5k_small_run(self, capsys):
        assert main(["e1-g5k", "--ops", "3000", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "E1:" in out
        assert "harmony(0.2)" in out
        assert "stale-read reduction" in out
        assert zlib.crc32(out.encode()) == STDOUT_CRC32["e1-g5k"]

    def test_fig1_small_run(self, capsys):
        assert main(["fig1", "--ops", "2000", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "FIG1" in out
        assert "simulator" in out
        assert zlib.crc32(out.encode()) == STDOUT_CRC32["fig1"]

    @pytest.mark.parametrize(
        "verb, heading, rows",
        [
            pytest.param(
                "e1-ec2", "E1: Harmony vs static consistency on ec2-harmony",
                ["eventual", "harmony(0.4)", "harmony(0.6)", "strong"], id="e1-ec2",
            ),
            pytest.param(
                "e2-cost", "E2: consistency level vs monetary cost",
                ["ONE", "TWO", "QUORUM", "FOUR", "ALL"], id="e2-cost",
            ),
            pytest.param(
                "e3-efficiency", "E3: consistency-cost efficiency samples",
                ["zipfian", "uniform", "hotspot"], id="e3-efficiency",
            ),
            pytest.param(
                "e4-bismar", "E4: Bismar vs static levels",
                ["ONE", "QUORUM", "ALL", "bismar"], id="e4-bismar",
            ),
        ],
    )
    def test_experiment_small_run(self, capsys, verb, heading, rows):
        assert main([verb, "--ops", "600", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(heading)
        firsts = {line.split()[0] for line in out.splitlines() if line.strip()}
        assert set(rows) <= firsts
        assert zlib.crc32(out.encode()) == STDOUT_CRC32[verb]

    def test_fig1_ops_sets_the_horizon(self, monkeypatch):
        from repro.experiments import model_eval

        class MonteCarlo:  # the model's estimate is not under test
            def __init__(self, **kwargs):
                pass

            def estimate(self, read_level, write_level, horizon):
                return 0.0

        seen = []
        monkeypatch.setattr(model_eval, "MonteCarloStaleEstimator", MonteCarlo)
        monkeypatch.setattr(
            model_eval, "_simulate_single_key",
            lambda *a: seen.append(a[3]) or 0.0,
        )
        res = model_eval.run_fig1_validation(ops=500, seed=5)
        assert list(res.rows) == [
            f"w={w:g} r={r}"
            for w in model_eval.WRITE_RATES for r in model_eval.READ_LEVELS
        ]
        assert set(seen) == {2.5}  # 500 ops / 200 reads per second
        seen.clear()
        model_eval.run_fig1_validation(ops=None, seed=5)
        assert set(seen) == {model_eval.HORIZON}  # without ops, the default

    def test_fig1_zero_ops_is_clean_error(self, capsys):
        assert main(["fig1", "--ops", "0"]) == 2
        assert capsys.readouterr().err == "error: ops must be >= 1, got 0\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["e1-g5k", "--ops", "400"],
            ["e2-cost"],
            ["fig1"],
            ["e5-behavior"],
            ["txn", "--ops", "40"],
            ["elastic", "--ops", "400"],
            ["xval"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_is_clean_error(self, argv, capsys):
        assert main(argv + ["--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"

    def test_sweep_takes_a_negative_root_seed(self, capsys):
        # the sweep derives each run's non-negative seed from its root seed
        argv = ["sweep", "--scenario", "single-dc-ycsb-a", "--ops", "200",
                "--seed", "-1"]
        assert main(argv) == 0
        assert "sweep: 1 runs" in capsys.readouterr().out

    def test_xval_bad_levels_is_clean_error(self, capsys):
        assert main(["xval", "--levels", "0.1,lots"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--levels" in err

    def test_sweep_bad_input_is_clean_error(self, capsys):
        assert main(["sweep", "--grid", "tolerence=0.2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "tolerence" in err

    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "geo-replication" in out
        assert "node-failure-storm" in out

    def test_scenarios_json_listing(self, capsys):
        import json

        from repro.experiments import scenarios

        assert main(["scenarios", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in doc}
        # machine-readable contract: name, params, description, tags, kind
        assert set(by_name) == set(scenarios.names())
        geo = by_name["geo-replication"]
        assert geo["description"]
        assert geo["params"] == {"tolerance": 0.2}
        assert geo["kind"] == "plain"
        assert by_name["txn-shootout"]["kind"] == "txn"
        assert by_name["elastic-flash-crowd"]["kind"] == "elastic"

    def test_scenarios_json_carries_commit_protocol(self, capsys):
        import json

        assert main(["scenarios", "--json"]) == 0
        by_name = {e["name"]: e for e in json.loads(capsys.readouterr().out)}
        assert by_name["txn-crash-storm"]["commit_protocol"] == "2pc"
        assert by_name["txn-protocol-shootout"]["commit_protocol"] == "2pc"
        # non-txn scenarios carry no protocol
        assert by_name["geo-replication"]["commit_protocol"] is None

    def test_txn_protocol_flag_runs(self, capsys):
        assert main(["txn", "--ops", "60", "--policy", "harmony",
                     "--protocol", "2pc-coop", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "2PC-coop over two EC2 AZs" in out

    def test_txn_unknown_protocol_is_clean_error(self, capsys):
        assert main(["txn", "--ops", "60", "--policy", "harmony",
                     "--protocol", "4pc"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "4pc" in err
        assert "2pc-coop" in err  # the message names the valid choices

    def test_scenarios_json_carries_client_mode_and_scale(self, capsys):
        import json

        assert main(["scenarios", "--json"]) == 0
        by_name = {e["name"]: e for e in json.loads(capsys.readouterr().out)}
        assert by_name["harmony-geo-cohort"]["client_mode"] == "cohort"
        assert by_name["harmony-geo-cohort"]["clients"] == 1_000_000
        assert by_name["elastic-diurnal-cohort"]["client_mode"] == "cohort"
        assert by_name["geo-replication"]["client_mode"] == "per_client"

    def test_scenarios_text_marks_cohort_scale(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "<cohort:1000000>" in out
        # per-client scenarios carry no mode marker
        geo_line = next(l for l in out.splitlines() if l.startswith("geo-replication"))
        assert "<" not in geo_line

    def test_elastic_small_run(self, capsys):
        assert main(["elastic", "--scenario", "elastic-rebalance-storm",
                     "--ops", "2000", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "keys streamed" in out
        assert "membership timeline:" in out
        assert "scale-out" in out

    def test_elastic_rejects_non_elastic_scenario(self, capsys):
        assert main(["elastic", "--scenario", "geo-replication"]) == 2
        err = capsys.readouterr().err
        assert "not an elastic scenario" in err

    def test_sweep_small_run(self, capsys, tmp_path):
        out_dir = tmp_path / "results"
        assert (
            main(
                [
                    "sweep",
                    "--scenario", "single-dc-ycsb-a",
                    "--grid", "tolerance=0.2,0.4",
                    "--jobs", "1",
                    "--ops", "400",
                    "--out", str(out_dir),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sweep: 2 runs" in out
        assert (out_dir / "results.json").exists()
        assert (out_dir / "results.csv").exists()

    def test_sweep_client_mode_flag(self, capsys, tmp_path):
        import json

        out_dir = tmp_path / "results"
        assert (
            main(
                [
                    "sweep",
                    "--scenario", "single-dc-ycsb-a",
                    "--client-mode", "cohort",
                    "--jobs", "1",
                    "--ops", "400",
                    "--out", str(out_dir),
                ]
            )
            == 0
        )
        capsys.readouterr()
        doc = json.loads((out_dir / "results.json").read_text())
        assert doc["runs"][0]["client_mode"] == "cohort"
        assert doc["runs"][0]["cohorts"]

    def test_sweep_rejects_unknown_client_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--client-mode", "pooled"])

    def test_sweep_cohort_scenario_runs(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--scenario", "harmony-geo-cohort",
                    "--jobs", "1",
                    "--ops", "800",
                    "--seed", "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sweep: 1 runs" in out
        assert "harmony-geo-cohort" in out


class TestLazyImports:
    def test_importing_the_cli_leaves_the_eval_modules_out(self):
        # A fresh interpreter: this one has long since imported them. The
        # CLI starts in a new process for every command a user types, and
        # only an experiment verb needs its eval module.
        probe = (
            "import sys, repro.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('repro.experiments.')\n"
            "             and m.endswith('_eval')))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        paths = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True,
        )
        assert done.stdout == "[]\n"
