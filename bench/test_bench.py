"""Self-test of the benchmark harness: ``python -m pytest bench -q``.

Runs every workload once at ``--smoke`` size (ops / 50), untraced and traced,
in well under a minute, and checks the harness against ``BENCHMARK.json``.
Not part of tier-1 (``testpaths`` stays ``tests``).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str, cwd: str = ROOT) -> "subprocess.CompletedProcess[str]":
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=170, check=False)


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory: pytest.TempPathFactory) -> dict:
    """One smoke run of everything, untraced and traced; result files + stdout."""
    out = tmp_path_factory.mktemp("bench")
    runs = {}
    for trace in ("0", "1"):
        path = str(out / f"trace{trace}.json")
        done = bench("--smoke", "--trace", trace, "--out", path)
        assert done.returncode == 0, done.stdout + done.stderr
        with open(path, encoding="utf-8") as fh:
            runs[trace] = {"path": path, "stdout": done.stdout, "file": json.load(fh)}
    return runs


def test_contract_is_within_the_limits(contract: dict) -> None:
    assert set(contract) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                             "per_layer"}
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in contract["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in contract["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in contract["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_named_metric_is_printed(contract: dict, smoke: dict, trace: str, key: str) -> None:
    wanted = {m["name"]: m["unit"] for m in contract[key]}
    lines = [json.loads(l) for l in smoke[trace]["stdout"].splitlines() if l.startswith("{")]
    assert len(lines) == len(contract["workloads"])
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert {n: m["unit"] for n, m in line["metrics"].items()} == wanted
        assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    for name in wanted:
        assert name in smoke[trace]["stdout"]


def test_result_file_is_stamped(smoke: dict) -> None:
    record = smoke["0"]["file"]["record"]
    assert record["smoke"] is True and record["seed"] == 11 and record["repeats"] == 2
    for key in ("python", "nproc", "git_head", "loadavg_start", "loadavg_end", "seconds"):
        assert key in record
    repeat = smoke["0"]["file"]["workloads"]["lan-static-rw"]["repeats"][0]
    assert 0 < repeat["interpreter_start_s"] < repeat["spawn_to_import_s"] < repeat["setup_s"]


def test_layers_account_for_the_whole_traced_run(smoke: dict) -> None:
    for name, section in smoke["1"]["file"]["workloads"].items():
        shares = [m["value"] for n, m in section["metrics"].items() if n.endswith(".self_share")]
        assert sum(shares) == pytest.approx(1.0, abs=0.01), name


def test_bypass_workloads_bypass(smoke: dict) -> None:
    lan = smoke["1"]["file"]["workloads"]["lan-static-rw"]["metrics"]
    for layer in ("monitor", "stale", "harmony", "bismar", "cost", "txn", "obs"):
        assert lan[f"{layer}.self_share"]["value"] < 0.01, layer
    aio = smoke["1"]["file"]["workloads"]["aio-txn-bank"]["metrics"]
    assert aio["simcore.self_share"]["value"] == 0
    assert aio["simcore.events_per_op"]["value"] is None
    assert aio["simcore.events_per_op"]["reason"].startswith("n/a")


def test_nulls_are_by_design_only(smoke: dict) -> None:
    """On this tree every missing value is a declared n/a, and no probe is missing."""
    for name, section in smoke["1"]["file"]["workloads"].items():
        for metric, m in section["metrics"].items():
            if m["value"] is None:
                assert m["reason"].startswith("n/a"), (name, metric, m["reason"])
                assert ".probe_" not in metric, (name, metric, m["reason"])


def test_check_against_itself_passes_and_a_doctored_copy_fails(smoke: dict, tmp_path) -> None:
    path = smoke["0"]["path"]
    same = bench("--check-against", path, path)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "0 end-to-end breach" in same.stdout

    doc = json.loads(json.dumps(smoke["0"]["file"]))
    doc["workloads"]["geo-bismar-write"]["metrics"]["ops_per_s"]["value"] *= 0.5
    slow = str(tmp_path / "slow.json")
    with open(slow, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    worse = bench("--check-against", path, slow)
    assert worse.returncode == 1 and "BREACH" in worse.stdout

    doc = json.loads(json.dumps(smoke["0"]["file"]))
    doc["record"]["seed"] = 12
    other = str(tmp_path / "other-seed.json")
    with open(other, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    refused = bench("--check-against", path, other)
    assert refused.returncode == 2 and "refusing" in refused.stderr


def test_check_against_marks_a_changed_model_output(smoke: dict, tmp_path) -> None:
    path = smoke["1"]["path"]
    doc = json.loads(json.dumps(smoke["1"]["file"]))
    doc["workloads"]["lan-static-rw"]["metrics"]["model.read_p99_ms"]["value"] += 0.5
    moved = str(tmp_path / "moved.json")
    with open(moved, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    done = bench("--check-against", path, moved)
    assert done.returncode == 0  # pinned, never gated
    changed = [l for l in done.stdout.splitlines() if l.rstrip().endswith("CHANGED")]
    assert len(changed) == 1 and "model.read_p99_ms" in changed[0]


def test_traced_counts_repeat_exactly(smoke: dict, tmp_path) -> None:
    again = str(tmp_path / "again.json")
    done = bench("--smoke", "--trace", "1", "--workload", "txn-storm-3pc", "--out", again)
    assert done.returncode == 0, done.stdout + done.stderr
    with open(again, encoding="utf-8") as fh:
        second = json.load(fh)["workloads"]["txn-storm-3pc"]["metrics"]
    first = smoke["1"]["file"]["workloads"]["txn-storm-3pc"]["metrics"]
    exact = [n for n in first if n.endswith((".calls_per_op", "_per_op", "_per_txn"))
             or n.startswith("model.")]
    assert len(exact) > 20
    for name in exact:
        assert first[name]["value"] == second[name]["value"], name


def test_no_result_without_the_program(tmp_path) -> None:
    """In a directory holding only BENCHMARK.json and bench/: non-zero, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".tmp", ".pytest_cache"))
    done = bench("--workload", "lan-static-rw", "--seed", "1", "--seconds", "8", "--trace", "0",
                 cwd=str(tmp_path))
    assert done.returncode != 0
    assert not any(l.startswith("{") for l in done.stdout.splitlines())
