"""One measured process: import, build inputs, warm up, time one run, check it.

``run.py`` starts a fresh one for every repeat (heap growth over seven
in-process repeats alone drifted the timed region by 9 %, and ``ru_maxrss``
is a process-lifetime high-water mark). The last line of stdout is one JSON
object; nothing else is printed there.
"""

from __future__ import annotations

import time

T_CHILD_START = time.monotonic()  # before the imports set-up time is billed for

import argparse  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict  # noqa: E402


#: chunks per second of :func:`calibration_rate` on the box the benchmark was
#: sized on, in a quiet phase. Frozen with the kernel: it defines the
#: "reference second" every end-to-end time is expressed in.
CALIBRATION_REF_PER_S = 200.0
CALIBRATION_SECONDS = 0.4


def calibration_rate(seconds: float = CALIBRATION_SECONDS) -> float:
    """Chunks per second of a fixed heap/dict/tuple churn: how fast the host is now.

    The sandbox's host slows every process by up to 40 % for tens of
    seconds at a time. This kernel does the kind of work the simulator does
    and nothing of the program's own, so timing it right before and right
    after the timed region says how fast the host was during it; dividing
    that out cut the run-to-run spread of ``lan-static-rw`` from 15 % to 4 %.
    """
    chunks = 0
    t0 = time.perf_counter()
    while True:
        heap: list = []
        table = {}
        for i in range(5_000):
            heapq.heappush(heap, (i * 7919 % 1000, i))
            table[f"k{i % 997}"] = (i, i + 1)
        while heap:
            heapq.heappop(heap)
        chunks += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return chunks / elapsed


def _cpu_seconds() -> float:
    """User + system CPU of this process and the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb(in_process: bool) -> float:
    """High-water RSS of this process, or of the largest process it spawned."""
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's time.monotonic() when it started this process")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--twin", action="store_true",
                        help="also run the workload's obs-off twin and compare reports")
    parser.add_argument("--trace", action="store_true",
                        help="after the timed run: a cProfile run folded by layer, and probes")
    args = parser.parse_args()

    import workloads  # imports repro

    t_imported = time.monotonic()
    workload = workloads.WORKLOADS[args.workload]
    tmp = os.environ["TMPDIR"]
    ops = workloads.timed_ops(workload, args.smoke)

    workload.prepare()
    workload.run(args.seed, workloads.warmup_ops(workload, args.smoke), tmp)
    setup_s = time.monotonic() - args.spawned_at
    rate_before = calibration_rate()
    gc.collect()

    cpu0 = _cpu_seconds()
    t0 = time.monotonic()
    outcome = workload.run(args.seed, ops, tmp)
    wall = time.monotonic() - t0
    cpu = _cpu_seconds() - cpu0
    peak_rss_mb = _peak_rss_mb(workload.timed_in_process)
    host_speed = (rate_before + calibration_rate()) / 2 / CALIBRATION_REF_PER_S

    facts = workload.facts(outcome, ops, args.smoke)
    result: Dict[str, Any] = {
        "workload": workload.name, "seed": args.seed, "smoke": args.smoke, "ops": ops,
        "unit": workload.unit, "deterministic": workload.deterministic,
        "spawn_to_import_s": t_imported - args.spawned_at,
        "interpreter_start_s": T_CHILD_START - args.spawned_at,
        "setup_s": setup_s, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb,
        "host_speed": host_speed,
        **facts,
    }
    if facts["requested"] and "simcore.events_per_op" in facts["counters"]:
        events = facts["counters"]["simcore.events_per_op"] * facts["requested"]
        facts["counters"]["simcore.us_per_event"] = 1e6 * wall / events
    if not workload.timed_in_process and wall > 0 and facts["requested"]:
        # the sweep's children did the work: their CPU over the worker slots
        facts["counters"]["experiments.parallel_efficiency"] = cpu / (wall * workload.jobs)
        facts["counters"]["experiments.cpu_s_per_kop"] = 1e3 * cpu / facts["requested"]

    if args.twin and workload.twin is not None:
        gc.collect()
        t0 = time.monotonic()
        twin = workload.twin(args.seed, ops, tmp)
        result["twin_wall_s"] = time.monotonic() - t0
        if workloads.crc32_of(twin.report) != workloads.crc32_of(outcome.report):
            facts["problems"].append("report differs from the obs-off twin (observer effect)")
        facts["counters"]["obs.overhead_share"] = 1.0 - result["twin_wall_s"] / wall
        del twin
    del outcome

    if args.trace:
        import layers

        gc.collect()
        if workload.timed_in_process:
            base_wall = wall
        else:
            t0 = time.monotonic()
            workload.in_process(args.seed, ops, tmp)
            base_wall = time.monotonic() - t0
        gc.collect()
        traced = layers.profile_by_layer(lambda: workload.in_process(args.seed, ops, tmp))
        traced["untraced_wall_s"] = base_wall
        probes, probe_nulls = layers.run_probes(
            args.seed, tmp, layers.PROBE_SECONDS / (10 if args.smoke else 1))
        result["trace"] = {**traced, "probes": probes, "probe_nulls": probe_nulls}

    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
