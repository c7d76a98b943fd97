"""Cross-run timeline diff: metric deltas and anomaly presence changes.

``repro diff RUN_A RUN_B`` aligns two ``timeline.jsonl`` artifacts on the
simulated clock and reports, as deterministic tables,

- **metric deltas** -- for every numeric sample column present in either
  run: time-weighted mean and final value on each side, truncated to the
  common sim-time horizon so a longer run does not skew the comparison;
- **anomaly changes** -- detections per oracle (``start``/``point``
  phases) on each side, with ``appeared``/``resolved`` notes when an
  oracle fires in only one run;
- **event changes** -- run-event counts per kind (crashes, partitions,
  migrations, level switches).

Both arguments may be files or directories: directories are walked like
``repro report`` and timelines are paired by their artifact directory
name (the sweep's deterministic ``{scenario}-{digest}`` naming), so two
sweep output trees diff run-for-run. Everything is plain arithmetic over
already-written records -- byte-stable output for identical inputs.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.tables import Table
from repro.obs.report import anomaly_counts, find_timelines, load_timeline

__all__ = ["diff_paths", "diff_timelines", "pair_timelines", "render_diff"]

#: sample keys that are identifiers, not comparable metrics
_NON_METRIC = ("type", "t", "level")


def pair_timelines(
    path_a: str, path_b: str
) -> Tuple[List[Tuple[str, str, str]], List[str], List[str]]:
    """Match timelines under two paths: ``(pairs, only_a, only_b)``.

    Files pair directly; directories pair by the timeline's parent
    directory name (the per-run artifact dir). Pairs are sorted by label.
    """
    found_a = find_timelines(path_a)
    found_b = find_timelines(path_b)
    if not found_a:
        raise ConfigError(f"no timeline.jsonl found under {path_a}")
    if not found_b:
        raise ConfigError(f"no timeline.jsonl found under {path_b}")
    if len(found_a) == 1 and len(found_b) == 1:
        return [("run", found_a[0], found_b[0])], [], []

    def by_label(paths: List[str]) -> Dict[str, str]:
        return {os.path.basename(os.path.dirname(p)): p for p in paths}

    map_a, map_b = by_label(found_a), by_label(found_b)
    pairs = [
        (label, map_a[label], map_b[label])
        for label in sorted(set(map_a) & set(map_b))
    ]
    only_a = sorted(set(map_a) - set(map_b))
    only_b = sorted(set(map_b) - set(map_a))
    if not pairs:
        raise ConfigError(
            f"no matching run directories between {path_a} and {path_b}"
        )
    return pairs, only_a, only_b


def _samples(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [r for r in records if r.get("type") == "sample"]


def _numeric_columns(samples: List[Dict[str, Any]]) -> List[str]:
    columns = set()
    for sample in samples:
        for key, value in sample.items():
            if key in _NON_METRIC:
                continue
            if isinstance(value, bool) or isinstance(value, (int, float)):
                columns.add(key)
    return sorted(columns)


def _column_stats(
    samples: List[Dict[str, Any]], column: str, horizon: float
) -> Optional[Tuple[float, float]]:
    """Time-weighted mean and final value up to ``horizon`` (None = absent)."""
    weighted = 0.0
    total_dt = 0.0
    final: Optional[float] = None
    prev_t = 0.0
    for sample in samples:
        t = float(sample.get("t", 0.0))
        if t > horizon + 1e-12:
            break
        dt = max(t - prev_t, 0.0)
        prev_t = t
        if column not in sample:
            continue
        value = float(sample[column])
        weighted += value * dt
        total_dt += dt
        final = value
    if final is None:
        return None
    mean = weighted / total_dt if total_dt > 0 else final
    return mean, final


def _event_counts(records: List[Dict[str, Any]]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for r in records:
        if r.get("type") == "event":
            kind = str(r.get("kind", "?"))
            counts[kind] = counts.get(kind, 0) + 1
    return counts


def diff_timelines(
    records_a: List[Dict[str, Any]], records_b: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Structured diff of two loaded timelines (JSON-safe, deterministic)."""
    samples_a, samples_b = _samples(records_a), _samples(records_b)
    last_a = float(samples_a[-1]["t"]) if samples_a else 0.0
    last_b = float(samples_b[-1]["t"]) if samples_b else 0.0
    horizon = min(last_a, last_b)

    metrics: List[Dict[str, Any]] = []
    columns = sorted(
        set(_numeric_columns(samples_a)) | set(_numeric_columns(samples_b))
    )
    for column in columns:
        stats_a = _column_stats(samples_a, column, horizon)
        stats_b = _column_stats(samples_b, column, horizon)
        row: Dict[str, Any] = {"metric": column}
        row["mean_a"] = stats_a[0] if stats_a else None
        row["mean_b"] = stats_b[0] if stats_b else None
        row["final_a"] = stats_a[1] if stats_a else None
        row["final_b"] = stats_b[1] if stats_b else None
        if stats_a and stats_b:
            row["delta_mean"] = stats_b[0] - stats_a[0]
        else:
            row["delta_mean"] = None
        metrics.append(row)

    anom_a, anom_b = anomaly_counts(records_a), anomaly_counts(records_b)
    anomalies: List[Dict[str, Any]] = []
    for oracle in sorted(set(anom_a) | set(anom_b)):
        a, b = anom_a.get(oracle, 0), anom_b.get(oracle, 0)
        note = ""
        if a == 0 and b > 0:
            note = "appeared"
        elif a > 0 and b == 0:
            note = "resolved"
        anomalies.append(
            {"oracle": oracle, "a": a, "b": b, "delta": b - a, "note": note}
        )

    ev_a, ev_b = _event_counts(records_a), _event_counts(records_b)
    events: List[Dict[str, Any]] = []
    for kind in sorted(set(ev_a) | set(ev_b)):
        a, b = ev_a.get(kind, 0), ev_b.get(kind, 0)
        events.append({"kind": kind, "a": a, "b": b, "delta": b - a})

    return {
        "horizon": horizon,
        "duration_a": last_a,
        "duration_b": last_b,
        "metrics": metrics,
        "anomalies": anomalies,
        "events": events,
    }


def _cell(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_diff(diff: Dict[str, Any], label: str = "run") -> str:
    """The diff as aligned text tables (metrics, anomalies, events)."""
    lines: List[str] = []
    lines.append(
        f"diff {label}: aligned to t<={_cell(diff['horizon'])} "
        f"(A ran {_cell(diff['duration_a'])}s, B ran {_cell(diff['duration_b'])}s)"
    )
    table = Table(
        "sample metrics (time-weighted mean and final value over the "
        "common horizon)",
        ["metric", "mean_a", "mean_b", "delta_mean", "final_a", "final_b"],
    )
    for row in diff["metrics"]:
        table.add_row(
            [
                row["metric"],
                _cell(row["mean_a"]),
                _cell(row["mean_b"]),
                _cell(row["delta_mean"]),
                _cell(row["final_a"]),
                _cell(row["final_b"]),
            ]
        )
    lines.append(table.render())
    if diff["anomalies"]:
        table = Table(
            "anomaly detections per oracle",
            ["oracle", "a", "b", "delta", "note"],
        )
        for row in diff["anomalies"]:
            table.add_row(
                [row["oracle"], row["a"], row["b"], row["delta"], row["note"]]
            )
        lines.append(table.render())
    else:
        lines.append("anomalies: none in either run")
    if diff["events"]:
        table = Table("run events per kind", ["kind", "a", "b", "delta"])
        for row in diff["events"]:
            table.add_row([row["kind"], row["a"], row["b"], row["delta"]])
        lines.append(table.render())
    return "\n\n".join(lines)


def diff_paths(path_a: str, path_b: str) -> Dict[str, Any]:
    """Diff every matched timeline pair under two paths.

    Returns ``{"pairs": [{"label", "diff"}, ...], "only_a": [...],
    "only_b": [...]}`` -- JSON-safe and deterministic.
    """
    pairs, only_a, only_b = pair_timelines(path_a, path_b)
    out: List[Dict[str, Any]] = []
    for label, file_a, file_b in pairs:
        out.append(
            {
                "label": label,
                "diff": diff_timelines(
                    load_timeline(file_a), load_timeline(file_b)
                ),
            }
        )
    return {"pairs": out, "only_a": only_a, "only_b": only_b}
