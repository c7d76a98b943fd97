"""Hinted handoff: buffering writes for replicas that were down.

When a write's replica is down, the coordinator stores a *hint* (the key and
version) instead of dropping the mutation. When the target recovers, hints
are replayed to it over the network. This is Cassandra's availability
mechanism for transient failures and matters to the reproduction because it
bounds how far behind a recovered replica is (it shapes the staleness tail
after failure-injection experiments).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.cluster.versions import Version

__all__ = ["HintStore"]

#: Cap on each target node's hint buffer.
MAX_HINTS_PER_NODE = 100_000


class HintStore:
    """Cluster-wide hint buffer, replayed on node recovery.

    The simulator keeps one logical store rather than per-coordinator ones;
    the behaviour (hints replayed to the recovered node after its recovery,
    paid as network traffic) is identical and the accounting simpler.

    Each target node's buffer is capped at ``MAX_HINTS_PER_NODE``. The cap
    evicts **oldest first** (as Cassandra's bounded hint window does: the
    hints most likely to be superseded go first), and every eviction is
    counted in ``dropped`` -- a node that overflows its hint budget is a
    node whose post-recovery state needs anti-entropy repair, so the
    counter is an operational signal, not just bookkeeping.
    """

    def __init__(self):
        self._hints: Dict[int, Deque[Tuple[str, Version]]] = {}
        self.stored = 0
        self.replayed = 0
        #: hints evicted (oldest-first) because a target's buffer was full.
        self.dropped = 0

    def add(self, target_node: int, key: str, version: Version) -> None:
        """Buffer a mutation for a down replica (evicting oldest when full)."""
        bucket = self._hints.setdefault(target_node, deque())
        if len(bucket) >= MAX_HINTS_PER_NODE:
            bucket.popleft()
            self.dropped += 1
        bucket.append((key, version))
        self.stored += 1

    def pending_total(self) -> int:
        """Hints buffered across all down nodes (the observable backlog)."""
        return sum(len(bucket) for bucket in self._hints.values())

    def pending_for(self, target_node: int) -> int:
        """Number of buffered hints awaiting ``target_node``."""
        return len(self._hints.get(target_node, ()))

    def drain(self, target_node: int) -> List[Tuple[str, Version]]:
        """Remove and return all hints buffered for ``target_node``."""
        hints = list(self._hints.pop(target_node, ()))
        self.replayed += len(hints)
        return hints

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HintStore(stored={self.stored}, replayed={self.replayed}, "
            f"dropped={self.dropped})"
        )
