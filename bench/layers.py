"""Per-layer measurement from outside the program.

Layers are the packages under ``src/repro/``. Two instruments live here:

- :func:`profile_by_layer` runs a call under ``cProfile`` -- a span at every
  call boundary -- and folds the spans by package: self time and call counts
  per layer. Time inside the standard library, numpy and builtins is charged
  to the ``repro.<layer>`` function that called it (the profiler's caller
  table gives exactly that edge); what no repro function called directly is
  ``other``.
- :data:`PROBES` are tight loops over one layer's public functions. They are
  owned by the benchmark, not borrowed from ``repro.perf.specs``, because a
  change that claims a gain may edit that registry but not this directory.

Both read the program through names a later tree may move; a probe whose
import or attribute is gone reports a reason instead of a number.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from typing import Any, Callable, Dict, Optional, Tuple

LAYERS = (
    "simcore", "net", "runtime", "cluster", "workload", "monitor", "stale", "harmony",
    "bismar", "cost", "txn", "elastic", "obs", "experiments", "common",
)

_PACKAGE_DIR = os.sep + os.path.join("repro", "")


def layer_of(filename: str) -> Optional[str]:
    """The ``repro`` sub-package a source file belongs to, else ``None``.

    Top-level modules (``facade.py``, ``policy.py``, ``cli.py``) dispatch
    into the harness, so they count with ``experiments``.
    """
    at = filename.rfind(_PACKAGE_DIR)
    if at < 0:
        return None
    head = filename[at + len(_PACKAGE_DIR):].split(os.sep)[0]
    if head in LAYERS:
        return head
    return "experiments" if head.endswith(".py") else None


def profile_by_layer(call: Callable[[], int]) -> Dict[str, Any]:
    """Run ``call`` under cProfile; fold self time and calls by layer.

    Returns ``{"ops", "wall_s", "self_s": {layer: s}, "calls": {layer: n}}``
    where ``self_s`` sums to the profiler's total and ``calls`` counts calls
    of functions defined in that layer's files.
    """
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    try:
        ops = call()
    finally:
        profiler.disable()
    wall = time.perf_counter() - t0
    self_s = {layer: 0.0 for layer in LAYERS + ("other",)}
    calls = {layer: 0 for layer in LAYERS}
    for func, (_cc, ncalls, tottime, _ct, callers) in pstats.Stats(profiler).stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            self_s[layer] += tottime
            calls[layer] += ncalls
            continue
        charged = 0.0
        for caller, edge in callers.items():
            caller_layer = layer_of(caller[0])
            if caller_layer is not None:
                self_s[caller_layer] += edge[2]
                charged += edge[2]
        self_s["other"] += tottime - charged
    return {"ops": ops, "wall_s": wall, "self_s": self_s, "calls": calls}


# -- probes -----------------------------------------------------------------------

#: seconds each probe loops for (a tenth of it under --smoke)
PROBE_SECONDS = 0.2

Probe = Callable[[Dict[str, Any]], Callable[[], int]]


def _rate(batch: Callable[[], int], seconds: float) -> float:
    """Units per second of ``batch`` (which returns the units it did)."""
    batch()  # first call pays lazy set-up
    done = 0
    t0 = time.perf_counter()
    while True:
        done += batch()
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return done / elapsed


def _fixture(shared: Dict[str, Any], which: str, seed: int) -> Any:
    """A small finished geo run whose live policy/monitor the probes reuse."""
    if which not in shared:
        import repro

        if which == "harmony":
            spec = repro.RunSpec(
                platform=repro.grid5000_harmony_platform(),
                policy=repro.harmony_factory(0.02),
                workload=repro.WORKLOADS["B"].scaled(2_000), ops=2_000, seed=seed)
        else:
            platform = repro.grid5000_bismar_platform()
            spec = repro.RunSpec(
                platform=platform, policy=repro.bismar_factory(platform.prices),
                ops=2_000, seed=seed)
        shared[which] = repro.run(spec)
    return shared[which]


def _probe_simcore(shared: Dict[str, Any]) -> Callable[[], int]:
    import repro

    def noop() -> None:
        return None

    def batch() -> int:
        sim = repro.Simulator()
        for i in range(2_000):
            sim.schedule(0.001 * (i % 97), noop)
        sim.run()
        return 2_000

    return batch


def _probe_net(shared: Dict[str, Any]) -> Callable[[], int]:
    import repro
    from repro.net import Network

    sim = repro.Simulator()
    topology = repro.grid5000_harmony_platform().topology_factory()
    network = Network(sim, topology, rng=shared["seed"])
    n = topology.n_nodes

    def noop() -> None:
        return None

    def batch() -> int:
        for i in range(2_000):
            network.send(i % n, (i * 7 + 1) % n, 1_000, noop)
        sim.run()
        return 2_000

    return batch


def _small_store(seed: int) -> Any:
    import repro

    _sim, store = repro.single_dc_platform().build(seed=seed)
    keys = [f"user{i}" for i in range(1_000)]
    store.preload(keys)
    return store, keys


def _probe_lookups(shared: Dict[str, Any]) -> Callable[[], int]:
    store, keys = _small_store(shared["seed"])

    def batch() -> int:
        for key in keys:
            store.replica_sets(key)
        return len(keys)

    return batch


def _probe_direct_ops(shared: Dict[str, Any]) -> Callable[[], int]:
    import repro

    store, keys = _small_store(shared["seed"])
    quorum = repro.ConsistencyLevel.QUORUM

    def batch() -> int:
        for i, key in enumerate(keys[:500]):
            if i % 2:
                store.read(key, quorum)
            else:
                store.write(key, quorum)
        store.sim.run()
        return 500

    return batch


def _probe_draws(shared: Dict[str, Any]) -> Callable[[], int]:
    import numpy as np

    import repro

    spec = repro.WORKLOADS["A"].scaled(50_000)
    rng = np.random.default_rng(shared["seed"])
    chooser = spec.make_chooser(rng=rng)

    def batch() -> int:
        for _ in range(2_000):
            spec.sample_op(rng)
            spec.key_of(chooser.next_index())
        return 2_000

    return batch


def _probe_monitor(shared: Dict[str, Any]) -> Callable[[], int]:
    import repro
    from repro.cluster.coordinator import OpResult

    monitor = repro.ClusterMonitor(window=2.0)
    clock = [0.0]

    def batch() -> int:
        t = clock[0]
        for i in range(2_000):
            t += 1e-4
            result = OpResult("read" if i % 20 else "write", f"user{i % 5000}", t, "n=1")
            result.t_end = t + 5e-4
            result.ok = True
            monitor.on_op_complete(result)
        clock[0] = t
        return 2_000

    return batch


def _probe_stale(shared: Dict[str, Any]) -> Callable[[], int]:
    from repro.stale.dcmodel import system_stale_rate_dc

    outcome = _fixture(shared, "harmony", shared["seed"])
    engine = outcome.policy
    snapshot = engine.monitor.snapshot(outcome.store.sim.now)
    profile = snapshot.key_profile or [(1.0, 1.0, 1)]

    def batch() -> int:
        for level in range(1, engine.rf + 1):
            system_stale_rate_dc(engine.deployment, snapshot.write_rate, profile, level)
        return engine.rf

    return batch


def _probe_harmony(shared: Dict[str, Any]) -> Callable[[], int]:
    outcome = _fixture(shared, "harmony", shared["seed"])
    now = outcome.store.sim.now

    def batch() -> int:
        outcome.policy.estimate_all_levels(now)
        return 1

    return batch


def _probe_bismar(shared: Dict[str, Any]) -> Callable[[], int]:
    outcome = _fixture(shared, "bismar", shared["seed"])
    now = outcome.store.sim.now

    def batch() -> int:
        outcome.policy.evaluate_levels(now)
        return 1

    return batch


def _probe_cost(shared: Dict[str, Any]) -> Callable[[], int]:
    outcome = _fixture(shared, "bismar", shared["seed"])
    engine = outcome.policy
    snapshot = engine.monitor.snapshot(outcome.store.sim.now)

    def batch() -> int:
        return len(engine.cost_estimator.estimate_all(snapshot, 1, 0.1))

    return batch


def _wal_appends(wal: Any) -> Callable[[], int]:
    from repro.cluster.versions import Version

    writes = {"user1": Version(1.0, 1, 1_000), "user2": Version(1.0, 2, 1_000)}
    next_txn = [0]

    def batch() -> int:
        txn = next_txn[0]
        for _ in range(250):
            txn += 1
            wal.append("tm-begin", txn, 0.5, participants=[1, 2, 3])
            wal.append("prepare", txn, 0.5, writes=writes, tm=0)
            wal.append("commit", txn, 0.6)
            wal.append("tm-end", txn, 0.7)
        next_txn[0] = txn
        return 1_000

    return batch


def _probe_wal(shared: Dict[str, Any]) -> Callable[[], int]:
    from repro.txn.wal import WriteAheadLog

    return _wal_appends(WriteAheadLog(0))


def _probe_filewal(shared: Dict[str, Any]) -> Callable[[], int]:
    from repro.runtime.wal import FileWriteAheadLog

    wal = FileWriteAheadLog(0, os.path.join(shared["tmp"], "probe", "node0.wal"))
    shared.setdefault("close", []).append(wal.close)
    return _wal_appends(wal)


def _probe_codec(shared: Dict[str, Any]) -> Callable[[], int]:
    from repro.cluster.versions import Version
    from repro.runtime.codec import decode, encode

    args = (17, 3, {"user1": Version(1.5, 9, 1_000), "user2": Version(1.5, 10, 1_000)}, True)

    def batch() -> int:
        for _ in range(500):
            decode(encode("on_prepare", args))
        return 500

    return batch


def _probe_obs(shared: Dict[str, Any]) -> Callable[[], int]:
    from repro.obs import EventBus, ObsEvent

    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)

    def batch() -> int:
        del seen[:]
        for i in range(2_000):
            bus.emit(ObsEvent(0.001 * i, "node-crash", {"node": i % 7, "dc": i % 2}))
        return 2_000

    return batch


def _probe_aggregate(shared: Dict[str, Any]) -> Callable[[], int]:
    from repro.experiments.sweep import SweepResult

    rows = [{
        "scenario": f"synthetic-{i % 7}", "params": {"tolerance": (i % 5) / 10.0, "index": i},
        "seed": 1_000 + i, "policy": "harmony(0.4)", "workload": "heavy-read-update",
        "ops_completed": 4_000 + i, "duration_s": 1.25, "throughput_ops_s": 3_200.0 + i,
        "read_latency_mean_ms": 1.5, "read_latency_p99_ms": 9.0,
        "write_latency_mean_ms": 1.1, "write_latency_p99_ms": 7.5,
        "stale_rate": 0.01 * (i % 9), "stale_rate_strict": 0.012 * (i % 9),
        "cost_total_usd": 0.5, "cost_per_kop_usd": 0.000125,
        "read_levels": {"n=1": 2_000, "n=2": 2_000 + i},
        "level_fractions": {"1": 0.5, "2": 0.5},
    } for i in range(300)]

    def batch() -> int:
        result = SweepResult(root_seed=shared["seed"], rows=list(rows))
        result.rows.sort(key=lambda r: (r["scenario"], r["seed"]))
        result.table().render()
        result.to_json()
        result.to_csv()
        return len(rows)

    return batch


def _probe_stats(shared: Dict[str, Any]) -> Callable[[], int]:
    from repro.common.stats import OnlineStats

    stats = OnlineStats()
    values = [0.001 * (i % 113) for i in range(5_000)]

    def batch() -> int:
        add = stats.add
        for x in values:
            add(x)
        return len(values)

    return batch


PROBES: Tuple[Tuple[str, Probe], ...] = (
    ("simcore.probe_events_per_s", _probe_simcore),
    ("net.probe_sends_per_s", _probe_net),
    ("cluster.probe_lookups_per_s", _probe_lookups),
    ("cluster.probe_direct_ops_per_s", _probe_direct_ops),
    ("workload.probe_draws_per_s", _probe_draws),
    ("monitor.probe_updates_per_s", _probe_monitor),
    ("stale.probe_evals_per_s", _probe_stale),
    ("harmony.probe_decisions_per_s", _probe_harmony),
    ("bismar.probe_decisions_per_s", _probe_bismar),
    ("cost.probe_estimates_per_s", _probe_cost),
    ("txn.probe_wal_appends_per_s", _probe_wal),
    ("runtime.probe_filewal_appends_per_s", _probe_filewal),
    ("runtime.probe_codec_frames_per_s", _probe_codec),
    ("obs.probe_emits_per_s", _probe_obs),
    ("experiments.probe_aggregate_rows_per_s", _probe_aggregate),
    ("common.probe_stats_adds_per_s", _probe_stats),
)


def run_probes(seed: int, tmp: str, seconds: float = PROBE_SECONDS
               ) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Every probe's rate over ``seconds`` each, and why for each that could not run."""
    shared: Dict[str, Any] = {"seed": seed, "tmp": tmp}
    values: Dict[str, float] = {}
    nulls: Dict[str, str] = {}
    try:
        for name, build in PROBES:
            # A probe reaches into one layer's modules, which later trees
            # may move: losing one probe must not lose the run.
            try:
                values[name] = _rate(build(shared), seconds)
            except Exception as exc:  # noqa: BLE001
                nulls[name] = f"{type(exc).__name__}: {exc}"
    finally:
        for close in shared.get("close", []):
            close()
    return values, nulls
