"""The committed benchmark trajectory, as CI's exact-count gate reads it.

CI compares a fresh ``python3 bench/run.py --trace 1`` run against the
highest-numbered ``benchmarks/BENCH_*.json``, so that file must be a full
traced record (default seed and length, not smoke) of every workload
``BENCHMARK.json`` names, with every per-layer metric either measured or
declared undefined.
"""

from __future__ import annotations

import glob
import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_RUN = os.path.join(ROOT, "bench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _latest_point() -> str:
    points = glob.glob(os.path.join(ROOT, "benchmarks", "BENCH_*.json"))
    return max(points, key=lambda p: int(re.search(r"BENCH_(\d+)\.json$", p).group(1)))


@pytest.fixture(scope="module")
def latest() -> dict:
    with open(_latest_point(), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave bench/ as checked in
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_latest_point_is_a_default_traced_run(latest):
    record = latest["record"]
    assert record["trace"] == 1 and record["smoke"] is False
    assert record["seed"] == 11
    assert record["seconds"] == CONTRACT["run_seconds"]
    assert set(latest["workloads"]) == set(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_is_recorded_correct_and_complete(latest, name):
    section = latest["workloads"][name]
    assert section["correct"] is True and section["problems"] == []
    assert section["attempted"] > 0 and section["failed"] == 0
    assert set(section["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    for metric, m in section["metrics"].items():
        if m["value"] is None:
            assert m["reason"].startswith("n/a"), (metric, m["reason"])
            assert ".probe_" not in metric, metric


def test_latest_point_checks_against_itself_as_all_same(latest, bench_run):
    path = _latest_point()
    done = subprocess.run(
        [sys.executable, BENCH_RUN, "--check-against", path, path],
        cwd=ROOT, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=60, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "0 end-to-end breach(es)" in done.stdout
    verdicts = [line.split()[-1] for line in done.stdout.splitlines()[1:-1]]
    assert "CHANGED" not in verdicts and "BREACH" not in verdicts
    exact = sum(
        1
        for section in latest["workloads"].values()
        if section["deterministic"]
        for metric, m in section["metrics"].items()
        if m["value"] is not None and bench_run.is_exact(metric)
    )
    assert exact > 0 and verdicts.count("same") == exact
