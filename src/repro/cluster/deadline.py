"""Freshness-deadline guarantees (paper §V, direction 3).

The paper's third future-work direction: "design and build an eventually
consistent system prototype that provides guarantees on the freshness of
data read and ensures that data is consistent after a set of defined
deadlines."

:class:`FreshnessDeadline` retrofits that guarantee onto the store: it
listens for writes and, one deadline after each write starts, verifies every
live replica holds a version at least as new -- re-pushing the mutation to
any replica that still lags (network permitting). The enforced invariant,
checked by the tests and exposed as :meth:`violations`:

    a read started more than ``deadline`` after a write's start never
    returns a version older than that write (on live, connected replicas).

Multiple guarantee tiers can be attached (e.g. 100 ms for the product
catalogue keyspace, 5 s for analytics) via the ``key_filter``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.cluster.coordinator import REQUEST_OVERHEAD, OpResult
from repro.cluster.versions import Version

__all__ = ["FreshnessDeadline"]


class FreshnessDeadline:
    """Deadline-bounded eventual consistency enforcement.

    Parameters
    ----------
    store:
        The deployment to guard.
    deadline:
        Seconds after a write's start by which all live replicas must hold
        it.
    key_filter:
        Optional predicate restricting the guarantee to a keyspace subset
        (the "different levels of guarantees" of the paper's §V).

    Attach with ``store.observe(fd)``; enforcement is lazy and costs
    one check per write plus re-push traffic only for replicas that lag.
    """

    def __init__(
        self,
        store,
        deadline: float,
        key_filter: Optional[Callable[[str], bool]] = None,
    ):
        if deadline <= 0:
            raise ConfigError(f"deadline must be positive, got {deadline}")
        self.store = store
        self.deadline = float(deadline)
        self.key_filter = key_filter
        self.checks = 0
        self.repushes = 0
        self._enforced: List[Tuple[str, Version]] = []

    # -- listener interface ------------------------------------------------------

    def on_op_complete(self, result: OpResult) -> None:
        """Schedule a deadline check for every guarded write."""
        if result.kind != "write" or not result.ok:
            return
        if self.key_filter is not None and not self.key_filter(result.key):
            return
        st = self.store
        key = result.key
        # the authoritative version at write time is the strict bar
        _, strict = st.oracle.expected_version(key)
        tr = st.transport
        remaining = self.deadline - (tr.now - result.t_start)
        tr.set_timer_at(tr.now + max(remaining, 0.0), self._enforce, key, strict)

    # -- enforcement ---------------------------------------------------------------

    def _enforce(self, key: str, version: Version) -> None:
        st = self.store
        self.checks += 1
        # Both sides of a pending migration: old owners serve the reads the
        # deadline promises freshness for, incoming owners must converge too.
        replicas = st.all_replicas(key)
        source = None
        for r in replicas:
            node = st.nodes[r]
            local = node.data.get(key)
            if node.up and local is not None and not version.newer_than(local):
                source = r
                break
        if source is None:
            # no live replica holds it yet (e.g. full partition): re-check
            # one deadline later rather than giving up.
            tr = st.transport
            tr.set_timer_at(tr.now + self.deadline, self._enforce, key, version)
            return
        for r in replicas:
            node = st.nodes[r]
            if r == source or not node.up:
                continue
            local = node.data.get(key)
            if local is None or version.newer_than(local):
                self.repushes += 1
                st.transport.send(
                    source,
                    r,
                    REQUEST_OVERHEAD + version.size,
                    node.handle_write,
                    key,
                    version,
                    _no_ack,
                )
        self._enforced.append((key, version))

    # -- verification ----------------------------------------------------------------

    def violations(self) -> int:
        """Count live replicas still older than an enforced version.

        Call after letting the simulator drain past the last deadline
        (re-pushed mutations still ride the network).
        """
        bad = 0
        st = self.store
        for key, version in self._enforced:
            # Audit the read-visible set only: during a migration that is
            # the old owners; incoming owners catch up via the rebalancer.
            for r in st.replica_sets(key)[0]:
                node = st.nodes[r]
                if not node.up:
                    continue
                local = node.data.get(key)
                if local is None or version.newer_than(local):
                    bad += 1
        return bad

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FreshnessDeadline(deadline={self.deadline}, checks={self.checks}, "
            f"repushes={self.repushes})"
        )


def _no_ack(node_id: int, key: str, version) -> None:
    """Deadline re-pushes need no acknowledgement."""
