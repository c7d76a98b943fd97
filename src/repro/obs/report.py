"""Timeline artifact loading, validation and rendering.

Consumed by the ``repro report`` CLI: loads a ``timeline.jsonl`` written
by :class:`~repro.obs.recorder.RunObserver`, checks it against the
timeline schema, and renders it as an annotated text report (samples
interleaved with event/explain/anomaly markers) or a CSV of the sample
series. Kept out of ``repro.obs.__init__`` so the hot path never pays
for report-only imports.

The validator accepts only what the observer writes: the
``TIMELINE_SCHEMA`` header, and samples carrying every field the SLO
engine indexes directly (the ground-truth read window and the
``txn_blocked`` signal of the always-on oracles). :func:`anomaly_counts`
is the one count of oracle detections the SLO engine and ``repro diff``
share.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

from repro.common.errors import ConfigError
from repro.obs.recorder import TIMELINE_SCHEMA

__all__ = [
    "anomaly_counts",
    "find_timelines",
    "load_timeline",
    "render_text",
    "samples_csv",
    "validate_timeline",
]

_RECORD_TYPES = ("sample", "event", "explain", "anomaly")
_SAMPLE_REQUIRED = (
    "stale_rate",
    "level",
    "ops_per_s",
    "window_reads",
    "window_stale",
    "txn_blocked",
)
_ANOMALY_PHASES = ("start", "end", "point")


def find_timelines(path: str) -> List[str]:
    """``timeline.jsonl`` files under ``path`` (a file or a directory)."""
    if os.path.isfile(path):
        return [path]
    if not os.path.isdir(path):
        raise ConfigError(f"no such file or directory: {path}")
    found: List[str] = []
    for root, dirs, files in os.walk(path):
        dirs.sort()
        if "timeline.jsonl" in files:
            found.append(os.path.join(root, "timeline.jsonl"))
    return sorted(found)


def load_timeline(path: str) -> List[Dict[str, Any]]:
    """Parse one timeline.jsonl; loud ConfigError on malformed input."""
    records: List[Dict[str, Any]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise ConfigError(f"{path}:{lineno}: record is not an object")
            records.append(record)
    return records


def validate_timeline(records: List[Dict[str, Any]]) -> List[str]:
    """Schema check; returns a list of human-readable problems (empty = ok)."""
    problems: List[str] = []
    if not records:
        return ["timeline is empty"]
    head = records[0]
    if head.get("type") != "header":
        problems.append("first record must be the header")
    elif head.get("schema") != TIMELINE_SCHEMA:
        problems.append(
            f"unknown schema {head.get('schema')!r} (expected {TIMELINE_SCHEMA})"
        )
    last_t = float("-inf")
    for i, record in enumerate(records[1:], start=2):
        rtype = record.get("type")
        if rtype not in _RECORD_TYPES:
            problems.append(f"record {i}: unknown type {rtype!r}")
            continue
        t = record.get("t")
        if not isinstance(t, (int, float)):
            problems.append(f"record {i}: missing numeric 't'")
            continue
        if t < last_t:
            problems.append(f"record {i}: time goes backwards ({t} < {last_t})")
        last_t = t
        if rtype == "sample":
            for key in _SAMPLE_REQUIRED:
                if key not in record:
                    problems.append(f"record {i}: sample missing {key!r}")
        elif rtype == "event" and "kind" not in record:
            problems.append(f"record {i}: event missing 'kind'")
        elif rtype == "explain" and "read_level" not in record:
            problems.append(f"record {i}: explain missing 'read_level'")
        elif rtype == "anomaly":
            if "oracle" not in record:
                problems.append(f"record {i}: anomaly missing 'oracle'")
            if record.get("phase") not in _ANOMALY_PHASES:
                problems.append(
                    f"record {i}: anomaly phase must be one of "
                    f"{_ANOMALY_PHASES}, got {record.get('phase')!r}"
                )
    return problems


def anomaly_counts(records: List[Dict[str, Any]]) -> Dict[str, int]:
    """Detections per oracle: its ``start`` and ``point`` anomaly records."""
    counts: Dict[str, int] = {}
    for r in records:
        if r.get("type") == "anomaly" and r.get("phase") in ("start", "point"):
            name = str(r.get("oracle", "?"))
            counts[name] = counts.get(name, 0) + 1
    return counts


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _event_line(record: Dict[str, Any]) -> str:
    kind = record.get("kind", "?")
    detail = " ".join(
        f"{k}={_fmt(record[k])}"
        for k in sorted(record)
        if k not in ("type", "t", "kind")
    )
    return f"** {kind}{(' ' + detail) if detail else ''} **"


def _explain_line(record: Dict[str, Any]) -> str:
    estimates = ", ".join(f"{e:.4f}" for e in record.get("estimates", []))
    return (
        f"explain {record.get('policy', '?')}: chose r={record.get('read_level')}"
        f" (estimates [{estimates}] vs tolerance {_fmt(record.get('tolerance', 0))},"
        f" write_rate={_fmt(record.get('write_rate', 0))}/s,"
        f" read_rate={_fmt(record.get('read_rate', 0))}/s)"
    )


def _anomaly_line(record: Dict[str, Any]) -> str:
    oracle = record.get("oracle", "?")
    phase = record.get("phase", "?")
    detail = " ".join(
        f"{k}={_fmt(record[k])}"
        for k in sorted(record)
        if k not in ("type", "t", "oracle", "phase")
    )
    return f"!! anomaly {oracle} {phase}{(' ' + detail) if detail else ''} !!"


def _sample_line(record: Dict[str, Any]) -> str:
    parts = [
        f"level={record.get('level')}",
        f"stale_rate={_fmt(record.get('stale_rate', 0))}",
        f"ops/s={_fmt(record.get('ops_per_s', 0))}",
        f"live={record.get('live_nodes', '?')}",
    ]
    if record.get("hint_backlog"):
        parts.append(f"hints={record['hint_backlog']}")
    if record.get("rebalance_active"):
        parts.append("rebalancing")
    if record.get("txn_commits") or record.get("txn_aborts"):
        parts.append(
            f"txn={record.get('txn_commits', 0)}c/{record.get('txn_aborts', 0)}a"
        )
    return " ".join(parts)


def render_text(records: List[Dict[str, Any]], source: str = "") -> str:
    """Annotated timeline: one line per record, markers highlighted."""
    lines: List[str] = []
    head = records[0] if records and records[0].get("type") == "header" else {}
    title = f"run timeline — {head.get('schema', 'unversioned')}"
    if source:
        title += f" — {source}"
    lines.append(title)
    meta = {
        k[len("meta_"):]: v for k, v in sorted(head.items()) if k.startswith("meta_")
    }
    slo = meta.pop("slo", None)
    if meta:
        lines.append("meta: " + " ".join(f"{k}={v}" for k, v in meta.items()))
    if isinstance(slo, dict):
        lines.append(
            "slo: " + " ".join(f"{k}={_fmt(slo[k])}" for k in sorted(slo))
        )
    status = f"sample_interval={head.get('sample_interval', '?')} "
    status += f"trace={'on' if head.get('trace') else 'off'}"
    if "samples" in head:
        status += f" samples={head['samples']}"
        if head.get("max_samples") and head["samples"] >= head["max_samples"]:
            status += " (SAMPLER CAPPED)"
    if "trace_events" in head:
        status += f" trace_events={head['trace_events']}"
    if head.get("trace_dropped"):
        status += f" trace_dropped={head['trace_dropped']} (TRACE TRUNCATED)"
    lines.append(status)
    lines.append("")
    counts = {"sample": 0, "event": 0, "explain": 0, "anomaly": 0}
    for record in records:
        rtype = record.get("type")
        if rtype not in counts:
            continue
        counts[rtype] += 1
        t = record.get("t", 0.0)
        if rtype == "event":
            body = _event_line(record)
        elif rtype == "explain":
            body = _explain_line(record)
        elif rtype == "anomaly":
            body = _anomaly_line(record)
        else:
            body = _sample_line(record)
        lines.append(f"t={t:10.4f}  {body}")
    lines.append("")
    summary = (
        f"{counts['sample']} samples, {counts['event']} events, "
        f"{counts['explain']} explains"
    )
    summary += f", {counts['anomaly']} anomalies"
    if head.get("anomalies_suppressed"):
        summary += f" ({head['anomalies_suppressed']} suppressed by cap)"
    lines.append(summary)
    return "\n".join(lines)


def samples_csv(records: List[Dict[str, Any]]) -> str:
    """The sample series as CSV (t first, remaining columns sorted)."""
    samples = [r for r in records if r.get("type") == "sample"]
    columns: List[str] = ["t"]
    extra = set()
    for sample in samples:
        for key in sample:
            if key not in ("type", "t"):
                extra.add(key)
    columns += sorted(extra)
    lines = [",".join(columns)]
    for sample in samples:
        lines.append(
            ",".join(_csv_cell(sample.get(col, "")) for col in columns)
        )
    return "\n".join(lines) + "\n"


def _csv_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)
