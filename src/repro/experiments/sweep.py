"""Parallel scenario sweeps: grid expansion, fan-out, and aggregation.

The sweep runner turns the scenario registry into result tables:

1. :func:`expand_grid` expands ``{"tolerance": [0.2, 0.4]}`` into the
   cartesian product of parameter points;
2. :func:`plan_sweep` crosses scenarios with the grid (each scenario only
   sees the axes it declares), assigning every run a deterministic seed
   derived from ``(root seed, scenario, params)`` with the same
   crc32-keyed scheme as :mod:`repro.common.rng` -- adding a scenario or a
   grid point never perturbs the seeds of existing runs;
3. :class:`SweepRunner` fans the runs out over a ``multiprocessing`` pool
   and aggregates per-run metrics into a :class:`SweepResult`.

Determinism is end-to-end: runs are independent simulations with derived
seeds, and rows are sorted canonically before aggregation, so the JSON and
CSV outputs are byte-identical across repetitions and across ``--jobs``
settings.
"""

from __future__ import annotations

import itertools
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.common.tables import Table
from repro.experiments import scenarios
from repro.obs.recorder import ObsConfig
from repro.runtime import BACKENDS

__all__ = [
    "SweepJob",
    "SweepPlan",
    "SweepResult",
    "SweepRunner",
    "expand_grid",
    "plan_sweep",
    "derive_seed",
    "parse_grid",
]


def _run_identity(scenario: str, params: Mapping[str, Any]) -> str:
    """Canonical JSON identity of a run: the single key used for seed
    derivation, plan dedup/ordering, and result-row ordering. All three must
    agree or the byte-identical-output guarantee breaks."""
    return json.dumps(
        {"scenario": scenario, "params": dict(params)}, sort_keys=True, default=str
    )


def derive_seed(root_seed: int, scenario: str, params: Mapping[str, Any]) -> int:
    """Deterministic per-run seed from the run's identity.

    Keyed on the canonical identity JSON via crc32 (stable across processes
    and runs, like :class:`repro.common.rng.RngFactory`'s stream names), so
    the seed depends only on *what* the run is -- never on scheduling order
    or worker layout.
    """
    key = _run_identity(scenario, params)
    return int(
        (int(root_seed) * 1_000_003 + (zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF))
        % 2**31
    )


def expand_grid(grid: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Cartesian product of a parameter grid, in canonical (sorted-key) order.

    Examples
    --------
    >>> expand_grid({"b": [1, 2], "a": ["x"]})
    [{'a': 'x', 'b': 1}, {'a': 'x', 'b': 2}]
    """
    if not grid:
        return [{}]
    keys = sorted(grid)
    for key in keys:
        if not isinstance(grid[key], (list, tuple)) or len(grid[key]) == 0:
            raise ConfigError(f"grid axis {key!r} must be a non-empty sequence")
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


def parse_grid(specs: Iterable[str]) -> Dict[str, List[Any]]:
    """Parse CLI ``key=v1,v2`` grid axes; values become int/float when they can.

    Examples
    --------
    >>> parse_grid(["tolerance=0.2,0.4", "policy=harmony,strong"])
    {'tolerance': [0.2, 0.4], 'policy': ['harmony', 'strong']}
    """

    def coerce(text: str) -> Any:
        for cast in (int, float):
            try:
                return cast(text)
            except ValueError:
                continue
        return text

    grid: Dict[str, List[Any]] = {}
    for spec in specs:
        key, sep, values = spec.partition("=")
        if not sep or not key or not values:
            raise ConfigError(f"grid axis {spec!r} is not of the form key=v1,v2")
        key = key.strip()
        if key in grid:
            raise ConfigError(
                f"grid axis {key!r} given twice; write it once as "
                f"{key}=v1,v2,..."
            )
        tokens = [v.strip() for v in values.split(",")]
        if any(not tok for tok in tokens):
            raise ConfigError(
                f"grid axis {spec!r} has an empty value (stray comma?)"
            )
        grid[key] = [coerce(tok) for tok in tokens]
    return grid


@dataclass(frozen=True)
class SweepJob:
    """One planned run: a scenario at a parameter point with a derived seed.

    ``client_mode`` (when set) forces per-client or cohort execution for
    every job; it deliberately does *not* enter the run identity, so a
    forced-mode sweep reuses the seeds of the default sweep and the two
    outputs are directly comparable run-for-run. ``obs_dir`` (when set)
    attaches a run observer and writes its timeline/trace artifacts under
    that directory; like ``client_mode`` it stays outside the identity,
    so an observed sweep reproduces the unobserved sweep's seeds exactly.
    ``backend`` (when set) forces the execution engine (``sim`` or
    ``asyncio``); it too stays outside the identity, so an
    asyncio-backend sweep reuses the sim sweep's derived seeds and its
    rows line up run-for-run with the simulator's.
    """

    scenario: str
    params: Dict[str, Any]
    seed: int
    ops: Optional[int] = None
    client_mode: Optional[str] = None
    obs_dir: Optional[str] = None
    backend: Optional[str] = None

    def key(self) -> str:
        """Canonical identity used for sorting and dedup."""
        return _run_identity(self.scenario, self.params)

    def artifact_dir(self) -> Optional[str]:
        """Deterministic per-run artifact directory under ``obs_dir``.

        Named from the scenario plus a crc32 of the canonical identity, so
        the layout depends only on *what* ran -- never on worker layout --
        and two grid points of one scenario cannot collide.
        """
        if self.obs_dir is None:
            return None
        return os.path.join(self.obs_dir, self.artifact_name())

    def artifact_name(self) -> str:
        """The per-run directory's base name (scenario + identity digest)."""
        digest = zlib.crc32(self.key().encode("utf-8")) & 0xFFFFFFFF
        return f"{self.scenario}-{digest:08x}"


@dataclass(frozen=True)
class SweepPlan:
    """An ordered run plan plus the root seed its job seeds derive from.

    Carrying the root seed here (rather than as a second argument to the
    runner) guarantees the seed recorded in the output is the one the runs
    were actually derived from.
    """

    root_seed: int
    jobs: Tuple[SweepJob, ...]

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)


def plan_sweep(
    scenario_names: Optional[Sequence[str]] = None,
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    root_seed: int = 11,
    ops: Optional[int] = None,
    client_mode: Optional[str] = None,
    obs_dir: Optional[str] = None,
    backend: Optional[str] = None,
) -> SweepPlan:
    """Cross scenarios with the grid into a deduplicated, ordered run plan.

    Each scenario resolves every grid point against its declared parameters;
    points that differ only in axes a scenario does not declare collapse to
    one run. Grid axes no selected scenario declares are rejected. The plan
    is sorted by canonical identity, so it is independent of registry
    insertion order and grid axis order.
    """
    selected = list(scenario_names) if scenario_names else scenarios.names()
    declared = set()
    for name in selected:
        declared.update(scenarios.get(name).defaults)
    unknown = sorted(set(grid or {}) - declared)
    if unknown:
        # An axis no selected scenario declares would silently sweep nothing
        # (a typo would yield a defaults-only run masquerading as a sweep).
        raise ConfigError(
            f"grid axes {unknown} are not declared by any selected scenario; "
            f"declared parameters are {sorted(declared)}"
        )
    if client_mode is not None and client_mode not in ("per_client", "cohort"):
        raise ConfigError(
            f"client_mode must be 'per_client' or 'cohort', got {client_mode!r}"
        )
    if backend is not None and backend not in BACKENDS:
        raise ConfigError(
            f"backend must be one of {list(BACKENDS)}, got {backend!r}"
        )
    jobs: Dict[str, SweepJob] = {}
    for name in selected:
        spec = scenarios.get(name)
        for point in expand_grid(grid or {}):
            params = spec.resolve_params(point)
            job = SweepJob(
                scenario=name,
                params=params,
                seed=derive_seed(root_seed, name, params),
                ops=ops,
                client_mode=client_mode,
                obs_dir=obs_dir,
                backend=backend,
            )
            jobs.setdefault(job.key(), job)
    return SweepPlan(
        root_seed=int(root_seed), jobs=tuple(jobs[k] for k in sorted(jobs))
    )


def _run_job(job: SweepJob) -> Dict[str, Any]:
    """Worker entry point: execute one job and return its result row."""
    spec = scenarios.get(job.scenario)
    run = spec.run(
        seed=job.seed,
        overrides=job.params,
        ops=job.ops,
        client_mode=job.client_mode,
        obs=ObsConfig() if job.obs_dir is not None else None,
        backend=job.backend,
    )
    row: Dict[str, Any] = {
        "scenario": job.scenario,
        "params": dict(sorted(job.params.items())),
        "seed": job.seed,
    }
    if job.backend is not None:
        # Stamp forced-engine rows; default (sim) sweeps stay byte-identical.
        row["backend"] = job.backend
    row.update(run.metrics())
    if run.obs is not None:
        # Stamp the run identity into the artifact headers, then write into
        # the job's deterministic directory; the artifact bytes depend only
        # on the simulation and the identity, never on worker scheduling.
        run.obs.run_meta["scenario"] = job.scenario
        run.obs.run_meta["params"] = " ".join(
            f"{k}={v}" for k, v in sorted(job.params.items())
        )
        run.obs.write(job.artifact_dir())
        # The base name, not the full path: results.json must not depend on
        # where the caller pointed --out.
        row["obs_dir"] = job.artifact_name()
    return row


#: Flat metric columns of the CSV table, in output order.
_CSV_COLUMNS = (
    "policy",
    "workload",
    "ops_completed",
    "throughput_ops_s",
    "read_latency_mean_ms",
    "read_latency_p99_ms",
    "stale_rate",
    "stale_rate_strict",
    "cost_per_kop_usd",
)

#: Transactional columns, appended (prefixed ``txn_``) whenever at least one
#: run in the sweep carries a ``txn`` metrics block; rows of non-txn
#: scenarios leave them empty.
_TXN_CSV_COLUMNS = (
    "commit_protocol",
    "txns",
    "commits",
    "abort_rate",
    "blocked_time",
    "msgs",
    "msg_bytes",
    "in_doubt_end",
    "lost_updates",
    "commit_latency_p99_ms",
)

#: Elasticity columns, appended (prefixed ``elastic_``) whenever at least
#: one run carries an ``elastic`` metrics block; rows of static scenarios
#: leave them empty.
_ELASTIC_CSV_COLUMNS = (
    "nodes_initial",
    "nodes_final",
    "scale_outs",
    "scale_ins",
    "ranges_moved",
    "keys_streamed",
    "bytes_streamed",
)


@dataclass
class SweepResult:
    """Aggregated sweep output: one canonical row per run."""

    root_seed: int
    rows: List[Dict[str, Any]] = field(default_factory=list)

    def table(self) -> Table:
        """ASCII summary table (one row per run).

        Transactional scenarios contribute ``txn_*`` columns so the CSV
        carries their headline metrics (commit/abort/in-doubt counts,
        commit latency), not just the read-side ones.
        """
        txn_cols = (
            list(_TXN_CSV_COLUMNS)
            if any(row.get("txn") for row in self.rows)
            else []
        )
        elastic_cols = (
            list(_ELASTIC_CSV_COLUMNS)
            if any(row.get("elastic") for row in self.rows)
            else []
        )
        t = Table(
            f"sweep: {len(self.rows)} runs (root seed {self.root_seed})",
            ["scenario", "params"]
            + list(_CSV_COLUMNS)
            + [f"txn_{c}" for c in txn_cols]
            + [f"elastic_{c}" for c in elastic_cols],
        )
        # One cell list per row, filled in place: the four-way list
        # concatenation this replaces allocated three throwaway lists per
        # row, which dominated aggregation time on multi-thousand-run sweeps.
        for row in self.rows:
            cells: List[Any] = [
                row["scenario"],
                " ".join(f"{k}={v}" for k, v in row["params"].items()),
            ]
            cells.extend(row[c] for c in _CSV_COLUMNS)
            if txn_cols:
                txn = row.get("txn") or {}
                cells.extend(txn.get(c, "") for c in txn_cols)
            if elastic_cols:
                elastic = row.get("elastic") or {}
                cells.extend(elastic.get(c, "") for c in elastic_cols)
            t.add_row(cells)
        return t

    def to_json(self) -> str:
        """Canonical JSON document (sorted keys, stable across runs)."""
        doc = {"root_seed": self.root_seed, "runs": self.rows}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        """Flat CSV of the summary table (params as ``k=v`` pairs)."""
        return self.table().to_csv()

    def write(self, out_dir: str) -> Dict[str, str]:
        """Write ``results.json`` and ``results.csv`` under ``out_dir``."""
        os.makedirs(out_dir, exist_ok=True)
        paths = {
            "json": os.path.join(out_dir, "results.json"),
            "csv": os.path.join(out_dir, "results.csv"),
        }
        with open(paths["json"], "w", encoding="utf-8") as f:
            f.write(self.to_json())
        with open(paths["csv"], "w", encoding="utf-8") as f:
            f.write(self.to_csv())
        return paths


class SweepRunner:
    """Fan a sweep plan out across worker processes and aggregate results.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` runs in-process (no pool), which is also
        the fallback when the platform offers no usable start method.

    Every job is an independent simulation with a seed derived from its
    identity, so the aggregated result is byte-identical whatever ``jobs``
    is -- verified by ``tests/test_sweep.py``.
    """

    def __init__(self, jobs: int = 1):
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)

    def run(self, plan: SweepPlan) -> SweepResult:
        """Execute the plan and return canonical, sorted rows."""
        pending = list(plan.jobs)
        if self.jobs == 1 or len(pending) <= 1:
            rows = [_run_job(job) for job in pending]
        else:
            # The platform-default start method: fork on Linux (cheap, shares
            # the warm registry), spawn on macOS/Windows where fork is unsafe
            # (workers re-import this module, repopulating the registry).
            import multiprocessing  # only a pooled sweep pays for the import

            ctx = multiprocessing.get_context()
            with ctx.Pool(processes=min(self.jobs, len(pending))) as pool:
                rows = pool.map(_run_job, pending, chunksize=1)
        rows.sort(key=lambda r: _run_identity(r["scenario"], r["params"]))
        return SweepResult(root_seed=plan.root_seed, rows=rows)
