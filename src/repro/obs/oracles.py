"""Streaming anomaly oracles: online invariant checking over a live run.

Where the rest of the observability layer *records* what happened, the
oracles *judge* it as it happens: a set of small deterministic state
machines fed by the same read-only hooks the :class:`RunObserver` already
taps (the store's fault, elastic and op-complete channels and the
sampler tick) that flag invariant violations as structured ``anomaly``
records interleaved with the timeline stream (schema ``repro.obs/2``).

Five invariants are watched:

- **stale-burst** -- the windowed stale-read rate (ground truth from the
  staleness oracle, not the client estimate) exceeds a threshold over a
  rolling window of sampler ticks;
- **in-doubt-dwell** -- a 2PC participant holds a prepared transaction
  without a decision for longer than a dwell budget (the blocked-state
  window presumed-abort is supposed to keep short);
- **rebalance-stall** -- a migration is active but none of the streaming
  progress counters advanced for a budget of simulated seconds;
- **quorum-loss** -- crashes and/or WAN partitions leave no connected
  component of the cluster with a majority of the non-retired nodes;
- **monotonic-read** -- a sampled key's reads return a version older than
  one previously returned for that key (session monotonicity broken).

Interval anomalies are edge-triggered: one ``phase: "start"`` record when
the condition first holds, one ``phase: "end"`` when it clears (or at
``finish()`` with ``unresolved: true``). Point anomalies (monotonic-read)
emit a single ``phase: "point"`` record per violation.

Determinism: the oracles never draw randomness, never schedule simulator
events of their own (interval conditions are evaluated on the existing
sampler ticks and on the triggering fault events), and sample keys by
``zlib.crc32`` so the choice is stable across interpreters regardless of
``PYTHONHASHSEED``. Every record is built from simulation state only, so
anomaly streams are byte-identical across ``--jobs`` layouts and repeat
runs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.obs.events import ObsEvent

__all__ = ["OracleConfig", "AnomalyOracles"]


#: Stale-burst detection: the windowed stale/read ratio over the last
#: ``STALE_WINDOW_TICKS`` sampler ticks must exceed ``STALE_RATE_THRESHOLD``,
#: over at least ``STALE_MIN_READS`` reads, for a burst to start.
STALE_WINDOW_TICKS = 4
STALE_RATE_THRESHOLD = 0.5
STALE_MIN_READS = 16
#: Simulated seconds of zero streaming progress (while a migration is
#: active) before a rebalance stall starts.
REBALANCE_STALL = 0.5
#: Monotonic reads watch the keys whose ``crc32(key) % N == 0``; the
#: modulus keeps the sampled set hash-seed independent.
MONOTONIC_SAMPLE_EVERY = 8
#: Per-oracle cap on emitted records; overflow is counted in the header
#: (``anomalies_suppressed``), not stored.
MAX_ANOMALIES = 200


@dataclass(frozen=True)
class OracleConfig:
    """The anomaly oracles' one per-scenario budget.

    Attributes
    ----------
    in_doubt_dwell:
        Simulated seconds a participant may hold a prepared transaction
        without a decision before it is flagged.
    """

    in_doubt_dwell: float = 1.0

    def __post_init__(self) -> None:
        if self.in_doubt_dwell <= 0:
            raise ConfigError(
                f"in_doubt_dwell must be positive, got {self.in_doubt_dwell}"
            )


#: ``emit(oracle, phase, t, **data)`` -- the sink the engine gives oracles.
_Emit = Callable[..., None]


class _IntervalOracle:
    """An edge-triggered interval invariant.

    :meth:`_edge` emits ``start`` (with the caller's fields) when the
    violation first holds and ``end`` with its ``duration`` when it
    clears; :meth:`finish` closes a still-open interval as
    ``unresolved``.
    """

    name = ""

    def __init__(self, emit: _Emit):
        self._emit = emit
        self._open_since: Optional[float] = None

    def _edge(self, now: float, holds: bool, **start: Any) -> None:
        if holds and self._open_since is None:
            self._open_since = now
            self._emit(self.name, "start", now, **start)
        elif not holds and self._open_since is not None:
            self._emit(self.name, "end", now, duration=now - self._open_since)
            self._open_since = None

    def finish(self, now: float) -> None:
        if self._open_since is not None:
            since, self._open_since = self._open_since, None
            self._emit(self.name, "end", now, duration=now - since, unresolved=True)


class _StaleBurstOracle(_IntervalOracle):
    """Windowed ground-truth stale-read rate over rolling sampler ticks."""

    name = "stale-burst"

    def __init__(self, emit: _Emit):
        super().__init__(emit)
        self._window: List[Tuple[int, int]] = []  # (reads, stale) per tick

    def on_tick(self, now: float, window_reads: int, window_stale: int) -> None:
        self._window.append((window_reads, window_stale))
        if len(self._window) > STALE_WINDOW_TICKS:
            self._window.pop(0)
        reads = sum(r for r, _ in self._window)
        stale = sum(s for _, s in self._window)
        rate = stale / reads if reads else 0.0
        self._edge(
            now,
            reads >= STALE_MIN_READS and rate > STALE_RATE_THRESHOLD,
            window_rate=rate,
            window_reads=reads,
            threshold=STALE_RATE_THRESHOLD,
        )


class _InDoubtDwellOracle:
    """Prepared-without-decision transactions held past the dwell budget."""

    name = "in-doubt-dwell"

    def __init__(self, config: OracleConfig, emit: _Emit, store):
        self._config = config
        self._emit = emit
        self._store = store
        #: (node, txn) -> earliest prepare time seen while the node is up
        #: (recovery re-registers at the recovery instant, restarting the
        #: clock: a crashed participant is dead, not blocked).
        self._prepared: Dict[Tuple[int, int], float] = {}
        self._open: Dict[Tuple[int, int], float] = {}

    def on_prepared(
        self, node_id: int, txn_id: int, t: float, restart: bool = False
    ) -> None:
        key = (node_id, txn_id)
        if restart:
            # Recovery re-registration: the node just came back from a
            # crash, so the dwell clock restarts at ``t`` even when the
            # whole crash+recovery fell between two sampler ticks (the
            # tick-granularity crash sweep below would otherwise never
            # have dropped the pre-crash start time). Downtime is dead,
            # not blocked; an anomaly left open across the crash closes.
            if key in self._open:
                del self._open[key]
                self._emit(
                    self.name, "end", t, node=node_id, txn=txn_id, crashed=True
                )
            self._prepared[key] = t
            return
        prev = self._prepared.get(key)
        # Duplicate registrations while up keep the earliest time.
        if prev is None or t < prev:
            self._prepared[key] = t

    def _node_down(self, node_id: int) -> bool:
        nodes = self._store.nodes
        if not 0 <= node_id < len(nodes):
            return False
        return not nodes[node_id].up

    def on_resolved(self, node_id: int, txn_id: int, t: float) -> None:
        key = (node_id, txn_id)
        self._prepared.pop(key, None)
        if key in self._open:
            del self._open[key]
            self._emit(
                self.name, "end", t, node=node_id, txn=txn_id
            )

    def on_tick(self, now: float) -> None:
        budget = self._config.in_doubt_dwell
        for key in sorted(self._prepared):
            if self._node_down(key[0]):
                # A crashed participant is dead, not blocked: drop its
                # dwell (recovery re-registers the pair at the recovery
                # instant, restarting the clock).
                del self._prepared[key]
                if key in self._open:
                    del self._open[key]
                    self._emit(
                        self.name, "end", now, node=key[0], txn=key[1],
                        crashed=True,
                    )
                continue
            if key in self._open:
                continue
            waited = now - self._prepared[key]
            if waited >= budget:
                self._open[key] = now
                self._emit(
                    self.name,
                    "start",
                    now,
                    node=key[0],
                    txn=key[1],
                    waited=waited,
                    budget=budget,
                )

    @property
    def overdue(self) -> int:
        """(node, txn) pairs held past the dwell budget (open anomalies).

        The *blocked* signal: ordinary in-flight prepares (one commit
        round trip of dwell) don't count, only transactions a participant
        has been stuck on beyond ``in_doubt_dwell`` simulated seconds.
        """
        return len(self._open)

    def finish(self, now: float) -> None:
        for key in sorted(self._open):
            self._emit(
                self.name,
                "end",
                now,
                node=key[0],
                txn=key[1],
                unresolved=True,
            )
        self._open.clear()


class _RebalanceStallOracle(_IntervalOracle):
    """Active migration with no streaming progress for too long."""

    name = "rebalance-stall"

    def __init__(self, emit: _Emit, store):
        super().__init__(emit)
        self._store = store
        self._last_sig: Optional[Tuple[int, ...]] = None
        self._last_progress_t = 0.0

    def on_migration_start(self, t: float) -> None:
        # restart the stall clock: a fresh migration is allowed the full
        # budget before its first pump lands.
        self._last_progress_t = t
        self._last_sig = None

    def on_tick(self, now: float) -> None:
        reb = self._store.rebalancer
        if reb is None or not reb.active:
            self._last_sig = None
            self._edge(now, False)
            return
        sig = reb.progress_signature()
        if sig != self._last_sig:
            self._last_sig = sig
            self._last_progress_t = now
        stalled = now - self._last_progress_t
        self._edge(
            now,
            stalled >= REBALANCE_STALL,
            stalled_for=stalled,
            pending_keys=reb.pending_keys(),
        )


class _QuorumLossOracle(_IntervalOracle):
    """No connected component holds a majority of the non-retired nodes.

    Node up/retired state is read from the store (the source of truth the
    failure injector and elastic layer both mutate); partition state is
    tracked from the ``partition``/``heal`` fault events. Connectivity is
    per-datacenter: a partition cuts every node pair across the named DCs.
    """

    name = "quorum-loss"

    def __init__(self, emit: _Emit, store):
        super().__init__(emit)
        self._store = store
        self._partitions: set = set()

    def on_fault(self, event: ObsEvent) -> None:
        if event.kind == "partition":
            self._partitions.add(
                frozenset((event.data["dc_a"], event.data["dc_b"]))
            )
        elif event.kind == "heal":
            self._partitions.discard(
                frozenset((event.data["dc_a"], event.data["dc_b"]))
            )
        elif event.kind not in ("node-crash", "node-recover"):
            return
        self.evaluate(event.t)

    def evaluate(self, now: float) -> None:
        store = self._store
        topo = store.topology
        n_dcs = len(topo.datacenters)
        live_by_dc = [0] * n_dcs
        total = 0
        for node in store.nodes:
            if node.retired:
                continue
            total += 1
            if node.up:
                live_by_dc[topo.dc_of(node.node_id)] += 1
        needed = total // 2 + 1
        # Union-find over datacenters; edges are the un-partitioned pairs.
        parent = list(range(n_dcs))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a in range(n_dcs):
            for b in range(a + 1, n_dcs):
                if frozenset((a, b)) not in self._partitions:
                    parent[find(a)] = find(b)
        component_live: Dict[int, int] = {}
        for dc in range(n_dcs):
            root = find(dc)
            component_live[root] = component_live.get(root, 0) + live_by_dc[dc]
        best = max(component_live.values()) if component_live else 0
        lost = total > 0 and best < needed
        self._edge(now, lost, live=best, needed=needed, total=total)

    def on_tick(self, now: float) -> None:
        # membership can change without a fault event (elastic joins/retires)
        self.evaluate(now)


class _MonotonicReadOracle:
    """Sampled keys whose reads return an older version than already seen."""

    name = "monotonic-read"

    def __init__(self, emit: _Emit):
        self._emit = emit
        self._seen: Dict[str, Any] = {}  # key -> newest Version returned

    def _sampled(self, key: str) -> bool:
        return zlib.crc32(key.encode("utf-8")) % MONOTONIC_SAMPLE_EVERY == 0

    def on_read(self, result) -> None:
        version = result.version
        if version is None or not result.ok or result.kind != "read":
            return
        key = result.key
        if not self._sampled(key):
            return
        prev = self._seen.get(key)
        if prev is None:
            self._seen[key] = version
            return
        if prev.newer_than(version):
            self._emit(
                self.name,
                "point",
                result.t_end,
                key=key,
                expected=prev.write_id,
                got=version.write_id,
            )
        else:
            self._seen[key] = version


class AnomalyOracles:
    """The oracle engine: owns the five oracles and the anomaly sink.

    ``sink`` is called with each finished anomaly record (a plain dict);
    the :class:`~repro.obs.recorder.RunObserver` passes its chronological
    record list's ``append`` so anomalies interleave with samples/events
    at their exact simulated time.
    """

    def __init__(self, store, config: OracleConfig, sink: Callable[[Dict[str, Any]], None]):
        self.config = config
        self._sink = sink
        #: records emitted per oracle (suppressed overflow counted apart).
        self.counts: Dict[str, int] = {}
        self.suppressed = 0
        emit = self._emit
        self.stale_burst = _StaleBurstOracle(emit)
        self.in_doubt = _InDoubtDwellOracle(config, emit, store)
        self.rebalance = _RebalanceStallOracle(emit, store)
        self.quorum = _QuorumLossOracle(emit, store)
        self.monotonic = _MonotonicReadOracle(emit)

    def _emit(self, oracle: str, phase: str, t: float, **data: Any) -> None:
        count = self.counts.get(oracle, 0)
        if count >= MAX_ANOMALIES:
            self.suppressed += 1
            return
        self.counts[oracle] = count + 1
        record: Dict[str, Any] = {
            "type": "anomaly",
            "t": t,
            "oracle": oracle,
            "phase": phase,
        }
        record.update(data)
        self._sink(record)

    # -- hook surface (called by the RunObserver) ----------------------------------

    def on_read(self, result) -> None:
        self.monotonic.on_read(result)

    def on_fault(self, event: ObsEvent) -> None:
        self.quorum.on_fault(event)

    def on_elastic_event(self, kind: str, t: float) -> None:
        if kind == "migration-start":
            self.rebalance.on_migration_start(t)

    def on_txn_prepared(
        self, node_id: int, txn_id: int, t: float, restart: bool = False
    ) -> None:
        self.in_doubt.on_prepared(node_id, txn_id, t, restart=restart)

    def on_txn_doubt_resolved(self, node_id: int, txn_id: int, t: float) -> None:
        self.in_doubt.on_resolved(node_id, txn_id, t)

    def on_tick(self, now: float, window_reads: int, window_stale: int) -> None:
        self.stale_burst.on_tick(now, window_reads, window_stale)
        self.in_doubt.on_tick(now)
        self.rebalance.on_tick(now)
        self.quorum.on_tick(now)

    def finish(self, now: float) -> None:
        """Close every still-open interval anomaly (``unresolved: true``)."""
        for oracle in (self.stale_burst, self.in_doubt, self.rebalance, self.quorum):
            oracle.finish(now)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AnomalyOracles({sum(self.counts.values())} anomalies, "
            f"{self.suppressed} suppressed)"
        )
