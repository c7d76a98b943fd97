"""Request coordination: the replica fan-out state machines.

One :class:`Coordinator` per node. The two operation state machines follow
Cassandra's data path:

**Write** -- the mutation is sent to *every* live replica immediately
(propagation always happens; that is what eventually-consistent means), but
the client acknowledgement fires as soon as the consistency level's
requirement is met. The window between those two moments is exactly the
staleness window of Figure 1: level ONE acknowledges after the first replica
(short ``T``), level ALL after the last (no window at all). An ack sent
after the client has its answer is billed and timed but not delivered.

**Read** -- the coordinator contacts exactly the level's replica count
(snitch-ordered: local datacenter first), waits for all of them, and returns
the newest version seen. Optionally a read-repair pass contacts the
remaining replicas in the background and patches stale ones.

Operation objects use ``__slots__``; replies reach bound handlers that take the op
as an argument; no per-op closure -- the two hottest allocation sites of all.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cluster.consistency import (
    ConsistencyLevel,
    LevelSpec,
    Requirement,
    resolve_level,
)
from repro.cluster.versions import Version

__all__ = ["OpResult", "Coordinator"]


#: Wire sizes (bytes) of the protocol frames, used for traffic billing. They
#: approximate Cassandra's binary protocol around small YCSB rows: a mutation
#: or a data response carries the row on top of ``REQUEST_OVERHEAD``; acks
#: and digests are small fixed-size frames; a replayed hint carries the row
#: on top of ``HINT_OVERHEAD``.
REQUEST_OVERHEAD = 100
ACK_SIZE = 60
DIGEST_SIZE = 80
HINT_OVERHEAD = 120


class OpResult:
    """Outcome of one client operation, delivered to the client callback."""

    __slots__ = (
        "kind",
        "key",
        "t_start",
        "t_end",
        "ok",
        "error",
        "stale",
        "level_label",
        "replicas_contacted",
        "ack_delays",
        "version",
        "dc",
    )

    def __init__(self, kind: str, key: str, t_start: float, level_label: str):
        self.kind = kind
        self.key = key
        self.t_start = t_start
        self.t_end = t_start
        self.ok = False
        self.error: Optional[str] = None
        self.stale: Optional[bool] = None
        self.level_label = level_label
        self.replicas_contacted = 0
        #: datacenter of the coordinating node (``-1`` for synthetic results
        #: such as total-outage failures or hint replays) -- the run
        #: observer keys per-DC latency series off this.
        self.dc = -1
        #: per-replica acknowledgement delays observed by the coordinator
        #: (writes only) -- the monitor's observable proxy for propagation time.
        self.ack_delays: Optional[List[float]] = None
        #: merged version a read returned (``None`` for writes / missing keys);
        #: transactional reads record it for commit-time validation.
        self.version: Optional[Version] = None

    @property
    def latency(self) -> float:
        """Client-visible latency in seconds."""
        return self.t_end - self.t_start

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "ok" if self.ok else f"failed({self.error})"
        extra = f", stale={self.stale}" if self.kind == "read" else ""
        return (
            f"OpResult({self.kind} {self.key!r} @{self.level_label}, "
            f"{status}, {self.latency * 1e3:.3f}ms{extra})"
        )


class _WriteOp:
    """In-flight write state."""

    __slots__ = (
        "coord",
        "result",
        "requirement",
        "version",
        "acks_total",
        "acks_by_dc",
        "extra_needed",
        "extra_acks",
        "done_cb",
        "finished",
        "tail",
    )

    def __init__(self, coord, result, requirement, version, done_cb):
        self.coord = coord
        self.result = result
        self.requirement = requirement
        self.version = version
        self.acks_total = 0
        #: per-DC ack census, kept only for the DC-aware levels that need it
        self.acks_by_dc: Optional[Dict[int, int]] = (
            {} if requirement.per_dc else None
        )
        # Migration pending-endpoint acks: live incoming owners that must
        # additionally acknowledge before the client ack fires (Cassandra's
        # raised effective write level during bootstrap). Keeps r+w>RF
        # freshness valid across the ownership switch.
        self.extra_needed = 0
        self.extra_acks = 0
        self.done_cb = done_cb
        #: the client has its answer (ack or timeout); the store's
        #: DeadlineQueue reads this to know the op needs no timeout any more
        self.finished = False
        #: latest ack arrival counted so far (where propagation completes)
        self.tail = 0.0


class _ReadOp:
    """In-flight read state."""

    __slots__ = (
        "coord",
        "result",
        "expected",
        "pending",
        "fg_pending",
        "best",
        "responses",
        "done_cb",
        "finished",
        "repair_targets",
    )

    def __init__(self, coord, result, expected, pending, done_cb):
        self.coord = coord
        self.result = result
        self.expected = expected
        self.pending = pending
        self.fg_pending = pending
        self.best: Optional[Version] = None
        self.responses: List[tuple] = []  # (node_id, version) for read repair
        self.done_cb = done_cb
        self.finished = False
        self.repair_targets: List[int] = []


class Coordinator:
    """Per-node request coordinator.

    Constructed by :class:`~repro.cluster.store.ReplicatedStore`; not
    intended for standalone use (it needs the store's shared ring, strategy,
    transport, nodes and oracle). All messaging and timers go through
    ``store.transport`` -- the coordinator never touches the simulator or
    the network object directly, which is what lets the same state machine
    run on the asyncio backend.
    """

    __slots__ = ("store", "node_id", "dc", "_orders", "_last_level", "_last_rf",
                 "_last_req")

    def __init__(self, store, node_id: int):
        self.store = store
        self.node_id = int(node_id)
        self.dc = store.topology.dc_of(node_id)
        self._orders = store._snitch_orders[self.dc]  # the store clears it
        # the last non-DC-aware requirement, served without hashing the enum
        self._last_level, self._last_rf, self._last_req = None, -1, None

    def _requirement(
        self, level: LevelSpec, replicas: Sequence[int], by_dc: Dict[int, int]
    ) -> Requirement:
        """Resolve ``level`` against this placement, memoized on the store.

        :class:`Requirement` is immutable, so one resolved instance serves
        every operation with the same (level, RF) shape -- which on a stable
        cluster is *all* of them. The datacenter census and coordinator DC
        join the key only for the DC-aware levels that actually depend on
        them; numeric/count levels key on (level, RF), the last served by identity.
        """
        rf = len(replicas)
        if level is self._last_level and rf == self._last_rf:
            return self._last_req
        if (
            level is ConsistencyLevel.LOCAL_QUORUM
            or level is ConsistencyLevel.EACH_QUORUM
        ):
            key = (level, rf, tuple(sorted(by_dc.items())), self.dc)
        elif type(level) is int or isinstance(level, ConsistencyLevel):
            key = (level, rf)
        else:
            # Unhashable/unknown specs fall through to the full resolver,
            # which raises the proper ConfigError.
            return resolve_level(level, rf, by_dc, self.dc)
        cache = self.store._requirement_cache
        requirement = cache.get(key)
        if requirement is None:
            requirement = resolve_level(level, rf, by_dc, self.dc)
            cache[key] = requirement
        if len(key) == 2:
            self._last_level, self._last_rf, self._last_req = level, rf, requirement
        return requirement

    # ------------------------------------------------------------------ write

    def write(
        self,
        key: str,
        level: LevelSpec,
        value_size: int,
        done: Optional[Callable[[OpResult], Any]],
    ) -> None:
        """Coordinate one write; the store completes it on ack or failure.

        ``done`` is the client's callback (or ``None``); completion always
        goes through ``store._op_done`` so metrics and listeners see it.
        """
        st = self.store
        tr = st.transport
        now = tr.now
        replicas, extra, by_dc = st.replica_info(key)
        requirement = self._requirement(level, replicas, by_dc)
        result = OpResult("write", key, now, requirement.label)
        result.dc = self.dc
        result.ack_delays = []

        nodes = st.nodes
        alive = [r for r in replicas if nodes[r].up]
        if requirement.per_dc:
            alive_by_dc: Dict[int, int] = {}
            for r in alive:
                dc = st.topology.dc_of(r)
                alive_by_dc[dc] = alive_by_dc.get(dc, 0) + 1
            feasible = requirement.feasible(len(alive), alive_by_dc)
        else:
            feasible = len(alive) >= requirement.total
        if not feasible:
            result.error = "unavailable"
            st._count_failure("write", "unavailable")
            st._op_done(result, done)
            return

        st.write_seq += 1
        version = Version(now, st.write_seq, value_size)
        st.oracle.note_write_start(key, version, n_replicas=len(alive))
        # Mark the write in flight until it settles (ack or timeout): the
        # rebalancer must not hand this key's ownership off underneath it.
        if st.rebalancer is not None:
            st._note_write_dispatched(key)

        op = _WriteOp(self, result, requirement, version, done)
        result.replicas_contacted = len(alive)
        msg = REQUEST_OVERHEAD + value_size
        send = tr.send
        me = self.node_id
        applied = self._on_write_applied

        for r in replicas:
            node = nodes[r]
            if node.up:
                send(me, r, msg, node.handle_write, key, version, applied, op)
            else:
                st.hints.add(r, key, version)
        # Forward to incoming owners of a pending migration. Live incoming
        # owners must acknowledge *in addition to* the level's requirement
        # (the raised effective write level of a bootstrap): after the ack,
        # both the old and the new replica set hold the write, so the
        # ownership switch can never manufacture a stale read. Their acks
        # stay out of the monitor's ack-delay profile -- the authoritative
        # set alone defines the observable propagation structure.
        if extra:
            extra_applied = self._on_extra_applied
            for r in extra:
                node = nodes[r]
                if node.up:
                    op.extra_needed += 1
                    send(me, r, msg, node.handle_write, key, version, extra_applied, op)
                else:
                    st.hints.add(r, key, version)

        if st.write_timeout > 0:
            st._write_deadlines.add(now + st.write_timeout, op)

    def _on_write_applied(self, node_id: int, key: str, version: Version,
                          op: _WriteOp) -> None:
        """Replica-side completion: record propagation, send the ack home.

        An ack sent after the op finished decides nothing: it goes undelivered
        and is accounted here at its arrival ``now + delay`` (see ``send``).
        """
        st = self.store
        send = st.transport.send
        now = st.transport.now
        st.oracle.note_replica_applied(version, now)
        if not op.finished:
            send(node_id, self.node_id, ACK_SIZE, self._on_write_ack, op, node_id)
            return
        delay = send(node_id, self.node_id, ACK_SIZE, None)
        if delay is None:
            return  # dropped: never counted, so never propagated
        arrival = now + delay
        if arrival > op.tail:
            op.tail = arrival
        result = op.result
        result.ack_delays.append(arrival - result.t_start)
        op.acks_total += 1
        if op.acks_total == result.replicas_contacted:
            # every live replica acked (the observable Tp): notify at the tail
            if op.tail <= now:
                st.fire("on_write_propagated", result)
            else:
                st.transport.post_at(op.tail, st.fire, "on_write_propagated", result)

    def _on_extra_applied(self, node_id: int, key: str, version: Version,
                          op: _WriteOp) -> None:
        """Incoming-owner completion: ack home, outside the oracle's count."""
        st = self.store
        # after the client ack an extra ack is a no-op: only billed
        deliver = None if op.finished else self._on_extra_ack
        st.transport.send(node_id, self.node_id, ACK_SIZE, deliver, op)

    def _on_extra_ack(self, op: _WriteOp) -> None:
        op.extra_acks += 1
        if not op.finished:
            self._maybe_finish_write(op, self.store.transport.now)

    def _on_write_ack(self, op: _WriteOp, replica_id: int) -> None:
        st = self.store
        now = st.transport.now
        result = op.result
        op.acks_total += 1
        by_dc = op.acks_by_dc
        if by_dc is not None:
            dc = st.topology.dc_of(replica_id)
            by_dc[dc] = by_dc.get(dc, 0) + 1
        result.ack_delays.append(now - result.t_start)
        if op.acks_total == result.replicas_contacted:
            # every live replica acked (the observable Tp): notify at the tail
            if op.tail <= now:
                st.fire("on_write_propagated", result)
            else:
                st.transport.post_at(op.tail, st.fire, "on_write_propagated", result)
        if op.finished:
            return
        if by_dc is not None or op.extra_needed:
            self._maybe_finish_write(op, now)
        elif op.acks_total >= op.requirement.total:  # _maybe_finish_write, inline
            op.finished = True
            st._write_deadlines.settle()
            st.oracle.note_write_acked(result.key, op.version)
            if st.rebalancer is not None:
                st._note_write_settled(result.key)
            result.t_end = now
            result.ok = True
            st._op_done(result, op.done_cb)

    def _maybe_finish_write(self, op: _WriteOp, now: float) -> None:
        """Ack the client once the level (and any migration extras) is met."""
        if op.extra_acks < op.extra_needed:
            return
        requirement = op.requirement
        if op.acks_by_dc is None:
            if op.acks_total < requirement.total:
                return
        elif not requirement.satisfied(op.acks_total, op.acks_by_dc):
            return
        st = self.store
        result = op.result
        op.finished = True
        st._write_deadlines.settle()
        st.oracle.note_write_acked(result.key, op.version)
        if st.rebalancer is not None:
            st._note_write_settled(result.key)
        result.t_end = now
        result.ok = True
        st._op_done(result, op.done_cb)

    # ------------------------------------------------------------------ read

    def read(
        self,
        key: str,
        level: LevelSpec,
        done: Optional[Callable[[OpResult], Any]],
    ) -> None:
        """Coordinate one read; the store completes it with the merged version.

        During a pending migration the replica set here is the *old*
        owners -- the nodes guaranteed to hold the key until the streaming
        hand-off completes -- so a membership change can never manufacture
        a stale read on its own.
        """
        st = self.store
        tr = st.transport
        now = tr.now
        replicas, _, by_dc = st.replica_info(key)
        requirement = self._requirement(level, replicas, by_dc)
        result = OpResult("read", key, now, requirement.label)
        result.dc = self.dc

        targets = self._select_read_targets(replicas, requirement)
        if targets is None:
            result.error = "unavailable"
            st._count_failure("read", "unavailable")
            st._op_done(result, done)
            return

        expected = st.oracle.expected_version(key)
        op = _ReadOp(self, result, expected, len(targets), done)
        result.replicas_contacted = len(targets)

        do_repair = (
            st.read_repair_chance > 0.0
            and st.uniforms.random() < st.read_repair_chance
        )
        nodes = st.nodes
        if do_repair:
            op.repair_targets = [
                r for r in replicas if r not in targets and nodes[r].up
            ]
            op.pending += len(op.repair_targets)

        send = tr.send
        me = self.node_id
        served = self._on_read_served
        req = REQUEST_OVERHEAD
        # first target returns full data, the rest return digests
        resp = st.default_value_size
        for r in targets:
            send(me, r, req, nodes[r].handle_read, key, served, op, resp, True)
            resp = DIGEST_SIZE
        for r in op.repair_targets:
            send(me, r, req, nodes[r].handle_read, key, served, op, DIGEST_SIZE, False)

        if st.read_timeout > 0:
            st._read_deadlines.add(now + st.read_timeout, op)

    def _select_read_targets(
        self, replicas: Sequence[int], requirement: Requirement
    ) -> Optional[List[int]]:
        """Snitch-ordered target choice: local DC first, then the rest.

        Honors per-DC requirements (LOCAL_QUORUM / EACH_QUORUM). Returns
        ``None`` when not enough live replicas exist.
        """
        st = self.store
        nodes = st.nodes
        if not requirement.per_dc:
            got = self._orders.get(id(replicas))
            if got is None or got[0] is not replicas:
                dc_of, dc = st.topology.dc_of, self.dc
                got = (replicas, sorted(replicas, key=lambda r: (dc_of(r) != dc, r)))
                self._orders[id(replicas)] = got
            chosen = [r for r in got[1] if nodes[r].up][: requirement.total]
            return chosen if len(chosen) == requirement.total else None
        alive = [r for r in replicas if nodes[r].up]
        chosen: List[int] = []
        by_dc: Dict[int, List[int]] = {}
        for r in alive:
            by_dc.setdefault(st.topology.dc_of(r), []).append(r)
        for dc, need in requirement.per_dc.items():
            pool = by_dc.get(dc, [])
            if len(pool) < need:
                return None
            chosen.extend(pool[:need])
        remaining = [r for r in alive if r not in chosen]
        remaining.sort(key=lambda r: (st.topology.dc_of(r) != self.dc, r))
        while len(chosen) < requirement.total and remaining:
            chosen.append(remaining.pop(0))
        if len(chosen) < requirement.total:
            return None
        return chosen

    def _on_read_served(self, node_id: int, key: str, version: Optional[Version],
                        op: _ReadOp, resp_bytes: int, foreground: bool) -> None:
        """A replica served the read: send its response home."""
        self.store.transport.send(
            node_id, self.node_id, resp_bytes,
            self._on_read_response, op, node_id, key, version, foreground,
        )

    def _on_read_response(
        self,
        op: _ReadOp,
        node_id: int,
        key: str,
        version: Optional[Version],
        foreground: bool,
    ) -> None:
        st = self.store
        op.pending -= 1
        if foreground:
            op.fg_pending -= 1
        op.responses.append((node_id, version))
        best = op.best
        if version is not None and (best is None or version.newer_than(best)):
            op.best = best = version

        # The client answer waits only for the foreground targets.
        if not op.finished and op.fg_pending <= 0:
            op.finished = True
            st._read_deadlines.settle()
            result = op.result
            result.t_end = st.transport.now
            result.ok = True
            result.version = best
            result.stale = st.oracle.note_read(op.expected, best)
            st._op_done(result, op.done_cb)

        if op.pending <= 0 and op.repair_targets:
            self._issue_read_repair(op, key)

    def _issue_read_repair(self, op: _ReadOp, key: str) -> None:
        """Write the freshest seen version back to any replica that lagged."""
        st = self.store
        best = op.best
        if best is None:
            return
        for node_id, version in op.responses:
            lagging = version is None or best.newer_than(version)
            if lagging:
                node = st.nodes[node_id]
                if not node.up:
                    continue
                st.repairs_issued += 1
                st.transport.send(
                    self.node_id,
                    node_id,
                    REQUEST_OVERHEAD + best.size,
                    node.handle_write,
                    key,
                    best,
                    _ignore_apply,
                )


def op_timed_out(op: "_ReadOp | _WriteOp") -> None:
    """Deadline expiry of the store's queues: fail an op still open."""
    st = op.coord.store
    result = op.result
    op.finished = True
    result.t_end = st.transport.now
    result.error = "timeout"
    if result.kind == "write" and st.rebalancer is not None:
        st._note_write_settled(result.key)
    st._count_failure(result.kind, "timeout")
    st._op_done(result, op.done_cb)


def _ignore_apply(node_id: int, key: str, version: Version) -> None:
    """No-op apply callback for repair and migration-forward writes."""
