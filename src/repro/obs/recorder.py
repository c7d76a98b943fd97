"""The run observer: one object wiring counts, events, traces, samples.

A :class:`RunObserver` attaches to a deployed store (and optionally its
policy and transactional layer) and records four streams into one
chronological timeline:

- **samples** -- periodic cluster snapshots (staleness, per-DC latency
  and arrival rate, consistency level in force, hint/repair backlog,
  live membership, txn/elastic counters);
- **events** -- structured run happenings from the store's ``on_fault``
  and ``on_elastic_event`` channels (crashes, recoveries, partitions,
  heals, scale events, migrations) plus level switches;
- **explains** -- Harmony decision records (observed rates, per-level
  staleness estimates, tolerance, chosen level): the *why* behind every
  level switch;
- **anomalies** -- streaming oracle verdicts (stale bursts, in-doubt
  dwell, rebalance stalls, quorum loss, monotonic-read violations) from
  :class:`~repro.obs.oracles.AnomalyOracles`, edge-triggered and
  interleaved at their exact simulated time.

The oracles run with every observer, so the timeline has one layout: the
header always counts anomalies per oracle, and every sample carries the
ground-truth read window (``window_reads``/``window_stale``) and the
in-doubt oracle's ``txn_blocked`` count -- the fields
:func:`repro.obs.report.validate_timeline` requires.

With ``trace`` enabled it also builds spans: coordinator fan-outs with
per-rank ack children (every ``trace_sample_every``-th operation,
counter-based so the choice is deterministic), all 2PC phase transitions,
rebalance streams, and instants for every marker.

The observer is strictly read-only with respect to the simulation: it
never draws randomness, never calls ``policy.read_level`` (that would
trigger a lazy refresh and perturb the decision schedule -- levels are
tracked via the engine's ``on_decision`` hook instead), and its sample
ticks only read state. Each tick consumes a simulator sequence number, but
the relative order of all other events is unchanged, so a run produces
byte-identical results with the observer attached or not. The observer
re-arms its tick every ``sample_interval`` simulated seconds until
:meth:`RunObserver.finish`, or until ``MAX_SAMPLES`` ticks have landed, so
it can never keep an otherwise-drained simulation alive indefinitely.

The observer counts transaction verdicts and scale events itself, from
the ``on_txn_complete`` and ``on_elastic_event`` hooks it receives. Samples
carry the scale counts only when a
:class:`~repro.monitor.collector.ClusterMonitor` observed the store before
the observer attached (the layout the golden timelines pin).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.common.errors import ConfigError
from repro.obs.events import ObsEvent
from repro.obs.oracles import AnomalyOracles, OracleConfig
from repro.obs.trace import Tracer

__all__ = ["ObsConfig", "RunObserver", "TIMELINE_SCHEMA"]

#: Timeline artifact schema tag, bumped on breaking record-layout changes;
#: the report loader accepts this one schema only.
TIMELINE_SCHEMA = "repro.obs/2"

#: Hard cap on ticked samples per run (bounds memory and self-perpetuation).
MAX_SAMPLES = 20_000


@dataclass(frozen=True)
class ObsConfig:
    """Observability knobs for one run.

    Attributes
    ----------
    sample_interval:
        Simulated seconds between time-series samples.
    trace:
        Record spans and markers into a Chrome trace.
    trace_sample_every:
        Trace every N-th client operation's fan-out (1 = all). The
        counter-based choice keeps the selection deterministic.
    oracle_config:
        Detection budgets for the streaming anomaly oracles, which always
        run alongside the sampler.
    out_dir:
        When set, :meth:`RunObserver.finish` writes ``timeline.jsonl``
        (and ``trace.json`` if tracing) into this directory.
    """

    sample_interval: float = 0.25
    trace: bool = True
    trace_sample_every: int = 16
    oracle_config: OracleConfig = field(default_factory=OracleConfig)
    out_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.sample_interval <= 0:
            raise ConfigError(
                f"sample_interval must be > 0, got {self.sample_interval}"
            )
        if self.trace_sample_every < 1:
            raise ConfigError(
                f"trace_sample_every must be >= 1, got {self.trace_sample_every}"
            )


def _initial_level(policy: Any) -> str:
    """Level label without calling ``read_level`` (no refresh side effects)."""
    if policy is None:
        return "n/a"
    current = getattr(policy, "_current", None)
    if current is not None:
        return f"r={current}"
    read = getattr(policy, "_read", None)
    if read is not None:
        return str(read)
    return str(getattr(policy, "name", "n/a"))


class RunObserver:
    """Records one run's metrics, events and spans. See the module doc."""

    def __init__(
        self,
        store,
        config: ObsConfig,
        policy: Any = None,
        run_meta: Optional[Dict[str, Any]] = None,
    ):
        self.store = store
        self.config = config
        self.policy = policy
        self.run_meta = dict(run_meta) if run_meta else {}
        self.tracer: Optional[Tracer] = (
            Tracer() if config.trace else None
        )
        #: chronological record stream (samples, events, explains), in the
        #: order they occurred on the simulated clock.
        self._records: List[Dict[str, Any]] = []
        self._level = _initial_level(policy)

        # per-DC accumulators since the last sample tick: dc -> [count, sum]
        self._dc_read: Dict[int, List[float]] = {}
        self._dc_write: Dict[int, List[float]] = {}
        self._ops_since_tick = 0
        self._ops_seen = 0
        self._trace_every = config.trace_sample_every
        self._last_tick_t = store.transport.now

        # ground-truth read/stale counters at the last tick, for windowed
        # deltas (feeds the per-sample window fields and the burst oracle)
        self._last_oracle_reads = store.oracle.reads
        self._last_oracle_stale = store.oracle.stale_reads
        self.oracles = AnomalyOracles(
            store, config.oracle_config, self._records.append
        )

        # verdict and scale counts; txn_in_doubt is net (a late verdict
        # moves a transaction out of it)
        self.txn_commits = 0
        self.txn_aborts = 0
        self.txn_in_doubt = 0
        self.scale_outs = 0
        self.scale_ins = 0

        # open trace bookkeeping
        self._open_txn_phase: Dict[int, str] = {}
        self._open_migrations: List[str] = []
        self._mig_seq = 0

        # Deferred: the cluster package imports this one, the monitor it.
        from repro.monitor.collector import ClusterMonitor

        self._sample_scale = any(
            isinstance(o, ClusterMonitor) for o in store.observers
        )

        # wiring: store observer hooks, policy decisions, the first tick
        store.observe(self)
        if policy is not None and hasattr(policy, "on_decision"):
            policy.on_decision = self._on_decision
        self._finished = False
        self._ticks = 0
        store.transport.post_at(
            store.transport.now + config.sample_interval, self._tick
        )

    # -- store observer interface ------------------------------------------------

    def on_op_complete(self, result) -> None:
        self._ops_seen += 1
        self._ops_since_tick += 1
        if result.kind == "read":
            self.oracles.on_read(result)
        if result.ok:
            acc = self._dc_read if result.kind == "read" else self._dc_write
            cell = acc.get(result.dc)
            if cell is None:
                acc[result.dc] = [1, result.latency]
            else:
                cell[0] += 1
                cell[1] += result.latency
        tracer = self.tracer
        if tracer is not None and self._ops_seen % self._trace_every == 0:
            op_id = f"op{self._ops_seen}"
            args: Dict[str, Any] = {"key": result.key, "dc": result.dc}
            if not result.ok:
                args["error"] = result.error
            if result.stale is not None:
                args["stale"] = result.stale
            tracer.span(
                "op",
                op_id,
                f"{result.kind}@{result.level_label}",
                result.t_start,
                result.t_end,
                args,
            )
            if result.kind == "write" and result.ack_delays:
                for rank, delay in enumerate(sorted(result.ack_delays)):
                    tracer.span(
                        "op",
                        f"{op_id}/ack{rank}",
                        f"ack[{rank}]",
                        result.t_start,
                        result.t_start + delay,
                    )

    def on_txn_complete(self, outcome) -> None:
        if outcome.reason == "resolved-in-doubt" and self.txn_in_doubt > 0:
            self.txn_in_doubt -= 1
        if outcome.status == "committed":
            self.txn_commits += 1
        elif outcome.status == "aborted":
            self.txn_aborts += 1
        else:
            self.txn_in_doubt += 1

    def on_elastic_event(self, event: Dict[str, Any]) -> None:
        kind = event.get("kind")
        if kind == "scale-out":
            self.scale_outs += 1
        elif kind == "scale-in":
            self.scale_ins += 1
        t = float(event.get("t", self.store.transport.now))
        record: Dict[str, Any] = {"type": "event", "t": t, "kind": kind}
        for k, v in event.items():
            if k not in ("kind", "t"):
                record[k] = v
        self._records.append(record)
        self.oracles.on_elastic_event(str(kind), t)
        tracer = self.tracer
        if tracer is None:
            return
        if kind == "migration-start":
            self._mig_seq += 1
            mig_id = f"mig{self._mig_seq}"
            self._open_migrations.append(mig_id)
            tracer.begin(
                "rebalance",
                mig_id,
                "migration",
                t,
                {
                    "ranges": event.get("ranges", 0),
                    "keys": event.get("keys", 0),
                    "joining": event.get("joining"),
                    "leaving": event.get("leaving"),
                },
            )
        elif kind == "migration-complete":
            # the rebalancer settles every outstanding stream at once
            for mig_id in self._open_migrations:
                tracer.end("rebalance", mig_id, "migration", t)
            self._open_migrations = []
        else:
            tracer.instant(str(kind), t, cat="elastic", args=record)

    # -- fault / policy / txn hooks -------------------------------------------------

    def on_fault(self, event: ObsEvent) -> None:
        self._records.append(event.to_record())
        self.oracles.on_fault(event)
        if self.tracer is not None:
            self.tracer.instant(event.kind, event.t, cat="failure", args=event.data)

    def _on_decision(self, engine, decision) -> None:
        record: Dict[str, Any] = {
            "type": "explain",
            "t": decision.t,
            "policy": engine.name,
            "read_level": decision.read_level,
            "estimates": [float(e) for e in decision.estimates],
            "tolerance": engine.tolerance,
            "write_rate": decision.write_rate,
            "read_rate": decision.read_rate,
        }
        self._records.append(record)
        new_level = f"r={decision.read_level}"
        if new_level != self._level:
            switch: Dict[str, Any] = {
                "type": "event",
                "t": decision.t,
                "kind": "level-switch",
                "from": self._level,
                "to": new_level,
            }
            self._records.append(switch)
            if self.tracer is not None:
                self.tracer.instant(
                    "level-switch",
                    decision.t,
                    cat="policy",
                    args={"from": self._level, "to": new_level},
                )
        self._level = new_level
        if self.tracer is not None:
            self.tracer.instant("explain", decision.t, cat="policy", args=record)

    def on_txn_phase(self, txn_id: int, phase: str, t: float, **info) -> None:
        """Commit-protocol phase transition from a transaction manager."""
        tracer = self.tracer
        if tracer is None:
            return
        span_id = f"txn{txn_id}"
        if phase == "prepare":
            self._open_txn_phase[txn_id] = "prepare"
            tracer.begin("txn", span_id, "prepare", t, info or None)
        elif phase == "precommit":
            # The 3PC barrier: an instant mark inside the open prepare span
            # (the round is still on its way to the commit point).
            tracer.instant("precommit", t, cat="txn", args=info)
        elif phase == "decide":
            if self._open_txn_phase.get(txn_id) == "prepare":
                tracer.end("txn", span_id, "prepare", t)
            tracer.instant(
                f"decide:{info.get('outcome', '?')}", t, cat="txn", args=info
            )
            self._open_txn_phase[txn_id] = "resolve"
            tracer.begin("txn", span_id, "resolve", t)
        elif phase == "recover":
            tracer.instant("recover", t, cat="txn", args=info)
            if self._open_txn_phase.get(txn_id) != "resolve":
                self._open_txn_phase[txn_id] = "resolve"
                tracer.begin("txn", span_id, "resolve", t)
        elif phase == "end":
            if self._open_txn_phase.pop(txn_id, None) == "resolve":
                tracer.end("txn", span_id, "resolve", t)

    def on_txn_prepared(
        self, node_id: int, txn_id: int, t: float, restart: bool = False
    ) -> None:
        """A participant voted YES and holds prepared (in-doubt) state.

        ``restart=True`` marks a recovery re-registration: the dwell clock
        restarts at ``t`` even if the crash fell between sample ticks.
        """
        self.oracles.on_txn_prepared(node_id, txn_id, t, restart=restart)

    def on_txn_doubt_resolved(self, node_id: int, txn_id: int, t: float) -> None:
        """A participant's prepared state was resolved by a decision."""
        self.oracles.on_txn_doubt_resolved(node_id, txn_id, t)

    # -- sampling --------------------------------------------------------------------

    def _tick(self) -> None:
        if self._finished:
            return
        now = self.store.transport.now
        self._collect(now)
        self._ticks += 1
        if self._ticks < MAX_SAMPLES:
            self.store.transport.post_at(now + self.config.sample_interval, self._tick)

    def _collect(self, now: float) -> None:
        store = self.store
        # The actual window since the previous sample: equals the configured
        # interval on regular ticks, shorter for the closing partial sample.
        interval = max(now - self._last_tick_t, 1e-9)
        self._last_tick_t = now
        window_reads = store.oracle.reads - self._last_oracle_reads
        window_stale = store.oracle.stale_reads - self._last_oracle_stale
        self._last_oracle_reads = store.oracle.reads
        self._last_oracle_stale = store.oracle.stale_reads
        sample: Dict[str, Any] = {
            "stale_rate": store.oracle.stale_rate,
            "stale_reads": store.oracle.stale_reads,
            "window_reads": window_reads,
            "window_stale": window_stale,
            "level": self._level,
            "ops_per_s": self._ops_since_tick / interval,
            "hint_backlog": store.hints.pending_total(),
            "repairs_issued": store.repairs_issued,
            "live_nodes": sum(
                1 for n in store.nodes if n.up and not n.retired
            ),
            "rebalance_active": bool(
                store.rebalancer is not None and store.rebalancer.active
            ),
        }
        for dc in sorted(self._dc_read):
            count, total = self._dc_read[dc]
            sample[f"dc{dc}_read_lat"] = total / count if count else 0.0
            sample[f"dc{dc}_reads_per_s"] = count / interval
        for dc in sorted(self._dc_write):
            count, total = self._dc_write[dc]
            sample[f"dc{dc}_write_lat"] = total / count if count else 0.0
            sample[f"dc{dc}_writes_per_s"] = count / interval
        self._dc_read = {}
        self._dc_write = {}
        self._ops_since_tick = 0

        sample["txn_commits"] = self.txn_commits
        sample["txn_aborts"] = self.txn_aborts
        sample["txn_in_doubt"] = self.txn_in_doubt
        # Participant-side blocked state straight from the in-doubt dwell
        # oracle: (node, txn) pairs held prepared-without-decision past the
        # dwell budget right now. The SLO engine integrates this signal
        # over the sample windows into ``blocked_txn_time``.
        sample["txn_blocked"] = self.oracles.in_doubt.overdue
        if self._sample_scale:
            sample["scale_outs"] = self.scale_outs
            sample["scale_ins"] = self.scale_ins

        self._records.append({"type": "sample", "t": now, **sample})
        # Oracles evaluate after the sample lands so their anomaly records
        # follow it at the same timestamp (stable interleaving).
        self.oracles.on_tick(now, window_reads, window_stale)

    # -- artifacts -------------------------------------------------------------------

    def header(self) -> Dict[str, Any]:
        head: Dict[str, Any] = {
            "type": "header",
            "schema": TIMELINE_SCHEMA,
            "sample_interval": self.config.sample_interval,
            "trace": self.config.trace,
            "trace_sample_every": self.config.trace_sample_every,
            # truncation surfaces: a capped trace or sample stream is flagged
            # here instead of silently missing records
            "samples": sum(1 for r in self._records if r["type"] == "sample"),
            "max_samples": MAX_SAMPLES,
            "trace_events": len(self.tracer) if self.tracer is not None else 0,
            "trace_dropped": self.tracer.dropped if self.tracer is not None else 0,
            "anomalies": {
                k: self.oracles.counts[k] for k in sorted(self.oracles.counts)
            },
            "anomalies_suppressed": self.oracles.suppressed,
        }
        for k in sorted(self.run_meta):
            head[f"meta_{k}"] = self.run_meta[k]
        return head

    def timeline_records(self) -> List[Dict[str, Any]]:
        """Header + chronological record stream (samples/events/explains)."""
        return [self.header()] + list(self._records)

    def finish(self) -> None:
        """Stop sampling, take a closing sample, write artifacts if asked."""
        if self._finished:
            return
        self._finished = True
        now = self.store.transport.now
        last_t = self._records[-1]["t"] if self._records else -1.0
        if now > last_t or not any(
            r["type"] == "sample" for r in self._records
        ):
            self._collect(now)
        self.oracles.finish(now)
        if self.tracer is not None:
            # Close spans still open at the cutoff (in-flight transactions,
            # unfinished migrations) so every begin has a matching end.
            for txn_id in sorted(self._open_txn_phase):
                phase = self._open_txn_phase[txn_id]
                self.tracer.end("txn", f"txn{txn_id}", phase, now)
            self._open_txn_phase = {}
            for mig_id in self._open_migrations:
                self.tracer.end("rebalance", mig_id, "migration", now)
            self._open_migrations = []
        if self.config.out_dir is not None:
            self.write(self.config.out_dir)

    def write(self, out_dir: str) -> None:
        """Write ``timeline.jsonl`` (+ ``trace.json``) deterministically."""
        os.makedirs(out_dir, exist_ok=True)
        timeline_path = os.path.join(out_dir, "timeline.jsonl")
        with open(timeline_path, "w") as fh:
            for record in self.timeline_records():
                fh.write(json.dumps(record, sort_keys=True))
                fh.write("\n")
        if self.tracer is not None:
            trace_path = os.path.join(out_dir, "trace.json")
            meta = {f"meta_{k}": v for k, v in sorted(self.run_meta.items())}
            with open(trace_path, "w") as fh:
                fh.write(self.tracer.to_json(meta))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        spans = len(self.tracer) if self.tracer is not None else 0
        return (
            f"RunObserver({len(self._records)} records, {spans} trace events, "
            f"level={self._level})"
        )
