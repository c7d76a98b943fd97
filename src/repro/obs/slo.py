"""Declarative SLOs evaluated over a run's timeline with error budgets.

An :class:`SLOSpec` states service-level objectives for one scenario --
stale-read rate, per-DC read p99 latency, transaction abort rate, total
blocked-transaction (in-doubt) time, run cost, anomaly count -- and this
module grades a recorded ``timeline.jsonl`` against it. Objectives over
time-varying signals (staleness, in-doubt time) are evaluated per sampler
window with **error-budget burn** accounting: the objective passes while
the fraction of run time spent in breach stays within ``error_budget``,
and the report shows how much of that budget each objective burned
(burn >= 1.0 is a breach).

Specs travel with the runs that produced them: a scenario's SLO is
stamped into the timeline header (``meta_slo``) by
:meth:`repro.experiments.scenarios.ScenarioSpec.run`, so ``repro report
PATH --slo`` can grade artifacts long after the run -- and CI gates chaos
scenarios on oracle silence with documented exit codes (0 = all pass,
1 = breach, 2 = an invalid timeline, or no header carries an SLO).

The engine reads the sample fields :func:`repro.obs.report.validate_timeline`
requires (``window_reads``, ``window_stale``, ``txn_blocked``) directly, so
a timeline is validated before it is graded. Evaluation is pure and
deterministic: plain arithmetic over the already written records, exact
sorted-order percentiles, no RNG, no clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError

__all__ = ["SLOSpec", "SLOResult", "SLOReport", "evaluate_slo"]


@dataclass(frozen=True)
class SLOSpec:
    """Service-level objectives for one scenario (all optional).

    Attributes
    ----------
    stale_rate_max:
        Per-window ground-truth stale-read rate objective; graded with
        the error budget (windows without reads are not counted).
    read_p99_ms_max:
        Exact p99 over per-window mean read latencies, per datacenter;
        every DC must meet it.
    abort_rate_max:
        Final aborts / (commits + aborts); vacuously met without
        transactions.
    blocked_txn_time_max:
        Total simulated seconds with any participant *blocked* in doubt:
        prepared without a decision past the dwell oracle's budget, per
        the ``txn_blocked`` sample signal.
    cost_ceiling_usd:
        Total run cost ceiling (needs ``meta_cost_total_usd`` in the
        header, stamped by the scenario harness).
    anomalies_max:
        Cap on anomaly records (``start``/``point`` phases, i.e. distinct
        detections) across all oracles; 0 = gate on oracle silence.
    error_budget:
        Tolerated fraction of run time in breach for the windowed
        objectives (0 = any breaching window fails).
    """

    stale_rate_max: Optional[float] = None
    read_p99_ms_max: Optional[float] = None
    abort_rate_max: Optional[float] = None
    blocked_txn_time_max: Optional[float] = None
    cost_ceiling_usd: Optional[float] = None
    anomalies_max: Optional[int] = None
    error_budget: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_budget < 1.0:
            raise ConfigError(
                f"error_budget must be in [0, 1), got {self.error_budget}"
            )
        if all(
            getattr(self, f.name) is None
            for f in fields(self)
            if f.name != "error_budget"
        ):
            raise ConfigError("an SLOSpec needs at least one objective")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe mapping (``None`` objectives omitted)."""
        doc: Dict[str, Any] = {"error_budget": self.error_budget}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "error_budget" and value is not None:
                doc[f.name] = value
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "SLOSpec":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigError(f"unknown SLO objective(s): {', '.join(unknown)}")
        return cls(**doc)


@dataclass
class SLOResult:
    """Verdict for one objective."""

    objective: str
    target: float
    observed: Optional[float]
    breached: bool
    #: error-budget burn for windowed objectives (>= 1.0 means breached);
    #: ``None`` for point-in-time objectives.
    burn: Optional[float] = None
    detail: str = ""

    def line(self) -> str:
        status = "FAIL" if self.breached else "PASS"
        if self.observed is None:
            body = "n/a"
        else:
            cmp = ">" if self.breached else "<="
            body = f"observed {_fmt(self.observed)} {cmp} {_fmt(self.target)}"
        if self.burn is not None:
            body += f" (budget burn {_fmt_burn(self.burn)})"
        if self.detail:
            body += f"  [{self.detail}]"
        return f"{status} {self.objective:<18s} {body}"


@dataclass
class SLOReport:
    """All objective verdicts for one timeline."""

    spec: SLOSpec
    results: List[SLOResult]

    @property
    def ok(self) -> bool:
        return not any(r.breached for r in self.results)

    def render(self, source: str = "") -> str:
        title = "SLO verdict" + (f" — {source}" if source else "")
        lines = [title]
        lines += [f"  {r.line()}" for r in self.results]
        failed = sum(1 for r in self.results if r.breached)
        verdict = "BREACH" if failed else "OK"
        lines.append(
            f"  verdict: {verdict} ({failed}/{len(self.results)} objectives failed)"
        )
        return "\n".join(lines)


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _fmt_burn(burn: float) -> str:
    return "inf" if math.isinf(burn) else f"{burn:.2f}"


def _percentile(values: List[float], pct: float) -> float:
    """Exact nearest-rank percentile over a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _windows(
    records: List[Dict[str, Any]],
) -> List[Tuple[float, Dict[str, Any]]]:
    """``(duration, sample)`` pairs; duration is the gap since the last tick."""
    out: List[Tuple[float, Dict[str, Any]]] = []
    prev_t = 0.0
    for record in records:
        if record.get("type") != "sample":
            continue
        t = float(record.get("t", 0.0))
        dt = t - prev_t
        prev_t = t
        if dt > 0.0:
            out.append((dt, record))
    return out


def _burn(breach_time: float, exposed_time: float, budget: float) -> Tuple[bool, float]:
    """(breached, burn) for time-in-breach vs an error budget."""
    if exposed_time <= 0.0:
        return False, 0.0
    frac = breach_time / exposed_time
    if budget > 0.0:
        return frac > budget, frac / budget
    return frac > 0.0, (math.inf if frac > 0.0 else 0.0)


def evaluate_slo(records: List[Dict[str, Any]], spec: SLOSpec) -> SLOReport:
    """Grade one loaded, validated timeline against ``spec``."""
    # Deferred: the package imports this module, and the report module
    # stays off the hot path's import.
    from repro.obs.report import anomaly_counts

    head = records[0]
    windows = _windows(records)
    samples = [s for _, s in windows]
    results: List[SLOResult] = []

    if spec.stale_rate_max is not None:
        breach_time = exposed = 0.0
        worst = 0.0
        for dt, sample in windows:
            reads = float(sample["window_reads"])
            if reads <= 0.0:
                continue  # no reads this window: no staleness exposure
            rate = float(sample["window_stale"]) / reads
            exposed += dt
            worst = max(worst, rate)
            if rate > spec.stale_rate_max:
                breach_time += dt
        breached, burn = _burn(breach_time, exposed, spec.error_budget)
        results.append(
            SLOResult(
                "stale_rate",
                spec.stale_rate_max,
                worst if exposed else None,
                breached,
                burn=burn,
                detail=f"{breach_time:.3g}s of {exposed:.3g}s in breach",
            )
        )

    if spec.read_p99_ms_max is not None:
        by_dc: Dict[int, List[float]] = {}
        for _, sample in windows:
            for key, value in sample.items():
                if key.startswith("dc") and key.endswith("_read_lat"):
                    dc = int(key[2:-len("_read_lat")])
                    by_dc.setdefault(dc, []).append(float(value) * 1e3)
        if by_dc:
            per_dc = {dc: _percentile(vals, 99.0) for dc, vals in by_dc.items()}
            observed = max(per_dc.values())
            breached = observed > spec.read_p99_ms_max
            detail = " ".join(
                f"dc{dc}={per_dc[dc]:.3g}ms" for dc in sorted(per_dc)
            )
        else:
            observed, breached, detail = None, False, "no read samples"
        results.append(
            SLOResult(
                "read_p99_ms", spec.read_p99_ms_max, observed, breached,
                detail=detail,
            )
        )

    if spec.abort_rate_max is not None:
        commits = aborts = 0
        if samples:
            commits = int(samples[-1].get("txn_commits", 0))
            aborts = int(samples[-1].get("txn_aborts", 0))
        total = commits + aborts
        if total:
            observed = aborts / total
            breached = observed > spec.abort_rate_max
            detail = f"{aborts} aborts / {total} decided"
        else:
            observed, breached, detail = None, False, "no transactions"
        results.append(
            SLOResult(
                "abort_rate", spec.abort_rate_max, observed, breached,
                detail=detail,
            )
        )

    if spec.blocked_txn_time_max is not None:
        # The participant-side blocked count the dwell oracle feeds into
        # samples: prepared-without-decision pairs past the dwell budget.
        blocked = sum(dt for dt, s in windows if int(s["txn_blocked"]) > 0)
        results.append(
            SLOResult(
                "blocked_txn_time",
                spec.blocked_txn_time_max,
                blocked,
                blocked > spec.blocked_txn_time_max,
                detail="windows with blocked participants",
            )
        )

    if spec.cost_ceiling_usd is not None:
        cost = head.get("meta_cost_total_usd")
        if cost is None:
            results.append(
                SLOResult(
                    "cost_ceiling_usd",
                    spec.cost_ceiling_usd,
                    None,
                    False,
                    detail="cost not recorded in header",
                )
            )
        else:
            results.append(
                SLOResult(
                    "cost_ceiling_usd",
                    spec.cost_ceiling_usd,
                    float(cost),
                    float(cost) > spec.cost_ceiling_usd,
                )
            )

    if spec.anomalies_max is not None:
        per_oracle = anomaly_counts(records)
        detections = sum(per_oracle.values())
        detail = (
            " ".join(f"{k}={per_oracle[k]}" for k in sorted(per_oracle))
            or "oracle silence"
        )
        results.append(
            SLOResult(
                "anomalies",
                float(spec.anomalies_max),
                float(detections),
                detections > spec.anomalies_max,
                detail=detail,
            )
        )

    return SLOReport(spec=spec, results=results)
