"""The repo's benchmark: seven workloads, end-to-end metrics, a per-layer trace.

    python3 bench/run.py [--workload NAME]... [--seed 11] [--seconds 8]
                         [--trace 0|1] [--smoke] [--out FILE]
    python3 bench/run.py --check-against BASE NEW

Every repeat of a workload is a fresh child process (``child.py``): import
``repro``, build inputs from the seed, one untimed warm-up at a tenth of the
size, then the timed run and its output checks. Timing metrics are medians
over the repeats. ``--trace 0`` prints the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` makes one more child that repeats the run
under cProfile, folds it by package and runs the layer probes, and prints
the per-layer metrics. The last line of stdout is the result of the (last)
workload as one JSON object.

``--check-against`` compares two ``--out`` files against the bounds in
``BENCHMARK.json`` and exits 1 on an end-to-end breach.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(BENCH_DIR, ".tmp")

#: what one timed region takes on the box the sizes were frozen on; with
#: ``--seconds`` it fixes the repeat count, so the count never depends on
#: how fast the tree under test happens to be
REGION_SECONDS = 2.5
MIN_REPEATS = 3
SMOKE_REPEATS = 2
CHILD_TIMEOUT_S = 150

#: per-layer metrics measured in host time; every other one is a count or a
#: simulated-time output and must repeat exactly on a deterministic workload
HOST_TIME_SUFFIXES = (".self_share", "_per_s", ".us_per_event", ".overhead_share",
                      ".overhead_ratio", ".parallel_efficiency", ".cpu_s_per_kop")
#: why a per-layer metric has no value when nothing went wrong reading it
NOT_DEFINED = "n/a: not defined on this workload"


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env(tmp: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = tmp  # repro's WAL and obs artifacts stay inside the checkout
    # let the priming child leave .pyc files behind, as on a user's machine;
    # otherwise every child would bill a full recompile of repro to set-up
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(workload: str, seed: int, smoke: bool, twin: bool, trace: bool) -> Dict[str, Any]:
    """One fresh measured process; returns its result record."""
    tmp = tempfile.mkdtemp(prefix=workload + "-", dir=TMP_ROOT)
    argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
            "--workload", workload, "--seed", str(seed)]
    argv += ["--smoke"] * smoke + ["--twin"] * twin + ["--trace"] * trace
    try:
        spawned_at = time.monotonic()
        # its own process group, so that a hung child takes the sweep's
        # worker processes down with it
        child = subprocess.Popen(
            argv + ["--spawned-at", repr(spawned_at)], env=child_env(tmp), cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise RuntimeError(f"{workload}: child still running after {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if child.returncode != 0:
        raise RuntimeError(f"{workload}: child exit {child.returncode}\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def prime() -> None:
    """A throw-away child: .pyc compilation and a cold page cache are not set-up."""
    subprocess.run([sys.executable, "-c", "import repro, repro.cli"], env=child_env(TMP_ROOT),
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)


def quartiles(samples: List[float]) -> Tuple[float, float]:
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def measure(name: str, seed: int, repeats: int, trace: bool, smoke: bool,
            contract: Dict[str, Any]) -> Dict[str, Any]:
    """Run one workload; returns its section of the result file."""
    if trace:
        children = [run_child(name, seed, smoke, twin=True, trace=True)]
    else:
        # the obs-off twin is deterministic: comparing it once per run is enough
        children = [run_child(name, seed, smoke, twin=(i == 0), trace=False)
                    for i in range(repeats)]
    problems = [p for child in children for p in child["problems"]]
    deterministic = children[0]["deterministic"]
    if deterministic:
        for key in ("requested", "model"):
            if any(child[key] != children[0][key] for child in children[1:]):
                problems.append(f"{key} differs between repeats of one seed")
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    if problems:
        failed = attempted  # an output that fails its check is worth nothing

    section: Dict[str, Any] = {
        "deterministic": deterministic, "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "requested_per_repeat": f"{children[0]['requested']} {children[0]['unit']}",
        "info": children[0]["info"],
        "repeats": [{k: child[k] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "host_speed",
                                           "spawn_to_import_s", "interpreter_start_s")}
                    for child in children],
    }
    if trace:
        section["metrics"] = per_layer_metrics(children[0], contract)
    else:
        section["metrics"] = end_to_end_metrics(children, contract)
    return section


def end_to_end_metrics(children: List[Dict[str, Any]], contract: Dict[str, Any]) -> Dict[str, Any]:
    """Medians over the repeats, every time in reference seconds.

    A reference second is a host second scaled by the host's speed at that
    moment (``host_speed``: the child's calibration kernel against the
    sizing box in a quiet phase), so a slow phase of the sandbox's host
    does not read as a slow program. Raw times stay in the result file.
    """
    requested = children[0]["requested"] or 1
    samples = {
        "ops_per_s": [requested / (c["wall_s"] * c["host_speed"]) for c in children],
        "cpu_s_per_kop": [1e3 * c["cpu_s"] * c["host_speed"] / requested for c in children],
        "setup_s": [c["setup_s"] * c["host_speed"] for c in children],
        "peak_rss_mb": [c["peak_rss_mb"] for c in children],
    }
    return {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"],
                        "samples": samples[m["name"]]}
            for m in contract["end_to_end"]}


def per_layer_metrics(child: Dict[str, Any], contract: Dict[str, Any]) -> Dict[str, Any]:
    trace = child["trace"]
    values: Dict[str, float] = dict(child["counters"])
    values.update(child["model"])
    values.update(trace["probes"])
    reasons: Dict[str, str] = dict(child["nulls"])
    reasons.update(trace["probe_nulls"])
    profiled = sum(trace["self_s"].values())
    for layer, seconds in trace["self_s"].items():
        values[f"{layer}.self_share"] = seconds / profiled
    for layer, calls in trace["calls"].items():
        values[f"{layer}.calls_per_op"] = calls / trace["ops"]
    values["trace.overhead_ratio"] = trace["wall_s"] / trace["untraced_wall_s"]
    out: Dict[str, Any] = {}
    for m in contract["per_layer"]:
        entry: Dict[str, Any] = {"value": values.get(m["name"]), "unit": m["unit"]}
        if entry["value"] is None:
            entry["reason"] = reasons.get(m["name"], NOT_DEFINED)
        out[m["name"]] = entry
    out["trace.overhead_ratio"]["base"] = (
        f"traced {trace['wall_s']:.3f} s / untraced {trace['untraced_wall_s']:.3f} s")
    if "twin_wall_s" in child:
        out["obs.overhead_share"]["base"] = (
            f"1 - obs-off {child['twin_wall_s']:.3f} s / obs-on {child['wall_s']:.3f} s")
    if "experiments.parallel_efficiency" in child["counters"]:
        out["experiments.parallel_efficiency"]["base"] = (
            f"children CPU {child['cpu_s']:.3f} s / (wall {child['wall_s']:.3f} s x 2 jobs)")
    return out


def result_line(section: Dict[str, Any]) -> str:
    """The driver's contract: one JSON object, nulls reported as 0."""
    metrics = {name: {"value": m["value"] if m["value"] is not None else 0.0, "unit": m["unit"]}
               for name, m in section["metrics"].items()}
    return json.dumps({"correct": section["correct"], "attempted": section["attempted"],
                       "failed": section["failed"], "metrics": metrics})


def print_section(name: str, section: Dict[str, Any]) -> None:
    walls = " ".join(f"{r['wall_s']:.3f}" for r in section["repeats"])
    speeds = " ".join(f"{r['host_speed']:.2f}" for r in section["repeats"])
    print(f"{name}: {len(section['repeats'])} fresh-process repeat(s) of "
          f"{section['requested_per_repeat']}, raw timed walls {walls} s "
          f"at host speed {speeds} of reference")
    for metric, m in section["metrics"].items():
        if m["value"] is None:
            print(f"  {metric:40s} null  ({m['reason']})")
            continue
        n = f"  median of n={len(m['samples'])}" if "samples" in m else ""
        base = f"  [{m['base']}]" if "base" in m else ""
        print(f"  {metric:40s} {m['value']:.10g} {m['unit']}{n}{base}")
    for problem in section["problems"]:
        print(f"  CHECK FAILED: {problem}")


def run_record(args: argparse.Namespace, repeats: int) -> Dict[str, Any]:
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, check=False,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_head": head.stdout.strip() if head.returncode == 0 else "unknown",
        "seed": args.seed, "seconds": args.seconds, "repeats": repeats,
        "smoke": args.smoke, "trace": args.trace, "loadavg_start": os.getloadavg(),
    }


# -- comparing two result files ------------------------------------------------------


def is_exact(metric: str) -> bool:
    return not metric.endswith(HOST_TIME_SUFFIXES)


def check_against(base_path: str, new_path: str, contract: Dict[str, Any]) -> int:
    with open(base_path, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    for key in ("seed", "seconds", "smoke", "trace"):
        if base["record"][key] != new["record"][key]:
            print(f"refusing to compare: {key} is {base['record'][key]!r} in {base_path} "
                  f"and {new['record'][key]!r} in {new_path}", file=sys.stderr)
            return 2
    directions = {m["name"]: m for m in contract["end_to_end"] + contract["per_layer"]}
    breaches = 0
    print(f"{'workload':18s} {'metric':38s} {'base':>12s} {'q1..q3':>25s} "
          f"{'new':>12s} {'q1..q3':>25s} {'worse by':>9s}  verdict")
    for name in base["workloads"]:
        if name not in new["workloads"]:
            continue
        old, cur = base["workloads"][name], new["workloads"][name]
        old_share = old["failed"] / old["attempted"]
        cur_share = cur["failed"] / cur["attempted"]
        verdict = "ok"
        if cur_share > old_share + 0.001:
            verdict, breaches = "BREACH", breaches + 1
        print(f"{name:18s} {'failed / attempted':38s} {old_share:12.6g} {'':25s} "
              f"{cur_share:12.6g} {'':25s} {'':9s}  {verdict}")
        for metric, m_old in old["metrics"].items():
            m_new = cur["metrics"].get(metric)
            if m_new is None or m_old["value"] is None or m_new["value"] is None:
                continue
            spec = directions[metric]
            a, b = m_old["value"], m_new["value"]
            spread_a = spread_b = ""
            if "samples" in m_old:
                spread_a = "{:.6g}..{:.6g}".format(*quartiles(m_old["samples"]))
                spread_b = "{:.6g}..{:.6g}".format(*quartiles(m_new["samples"]))
            worse = (a - b if spec["better"] == "higher" else b - a) / abs(a) if a else 0.0
            if "bound" in spec:
                verdict = "ok"
                if worse > spec["bound"]:
                    verdict, breaches = f"BREACH (> {spec['bound']:.0%})", breaches + 1
            elif old["deterministic"] and is_exact(metric):
                verdict = "same" if a == b else "CHANGED"
            else:
                verdict = "-"
            print(f"{name:18s} {metric:38s} {a:12.6g} {spread_a:>25s} {b:12.6g} "
                  f"{spread_b:>25s} {worse:+9.2%}  {verdict}")
    print(f"{breaches} end-to-end breach(es)")
    return 1 if breaches else 0


# -- entry point ---------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names, metavar="NAME",
                        help="workload to run (repeatable; default: all of them)")
    parser.add_argument("--seed", type=int, default=11, help="seed every input is made from")
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"],
                        help="timed seconds per workload; one repeat per %g s, at least %d"
                        % (REGION_SECONDS, MIN_REPEATS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer metrics (a traced run and probes) instead of "
                        "the end-to-end ones")
    parser.add_argument("--smoke", action="store_true",
                        help="sizes / 50, two repeats: exercises every path in under a minute")
    parser.add_argument("--out", metavar="FILE", help="write the full result file here")
    parser.add_argument("--check-against", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two result files and exit (runs nothing)")
    args = parser.parse_args(argv)

    if args.check_against:
        return check_against(args.check_against[0], args.check_against[1], contract)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2

    repeats = SMOKE_REPEATS if args.smoke else max(MIN_REPEATS, round(args.seconds / REGION_SECONDS))
    record = run_record(args, repeats)
    os.makedirs(TMP_ROOT, exist_ok=True)
    if record["loadavg_start"][0] > (os.cpu_count() or 1) / 2:
        print(f"warning: load average {record['loadavg_start'][0]:.2f} at start; "
              "timings will be noisy", file=sys.stderr)
    sections: Dict[str, Any] = {}
    try:
        prime()
        for name in args.workload or names:
            sections[name] = measure(name, args.seed, repeats, bool(args.trace), args.smoke,
                                     contract)
            print_section(name, sections[name])
            print(result_line(sections[name]), flush=True)
    finally:
        shutil.rmtree(TMP_ROOT, ignore_errors=True)
    record["loadavg_end"] = os.getloadavg()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"record": record, "workloads": sections}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(section["correct"] for section in sections.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
