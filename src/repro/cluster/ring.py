"""The consistent-hash token ring.

Nodes own ``vnodes`` tokens each (virtual nodes, like Cassandra's
``num_tokens``), drawn deterministically from the node id so the ring layout
is reproducible without any coordination. Lookup is a binary search over the
sorted token array -- O(log V) per operation with V = total vnodes.

The ring answers exactly one question: *which distinct physical nodes follow
a token clockwise?* Replica placement policy on top of that walk lives in
:mod:`repro.cluster.replication`.

Membership is **live**: :meth:`TokenRing.add_node` and
:meth:`TokenRing.remove_node` rebuild the token array incrementally and
return the exact set of token ranges whose primary owner changed -- the
work list the elastic subsystem's streaming rebalancer migrates. Because
vnode tokens are a pure function of the node id, a ring that grew from 4
to 5 nodes is bit-identical to one constructed with 5 nodes: layout never
depends on membership history.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigError
from repro.cluster.partitioner import TOKEN_SPACE, token_of

__all__ = ["TokenRing", "MovedRange"]


def _vnode_token(node_id: int, vnode_index: int) -> int:
    """Deterministic token for a (node, vnode) pair."""
    digest = hashlib.md5(f"vnode:{node_id}:{vnode_index}".encode()).digest()
    return int.from_bytes(digest, "big") % TOKEN_SPACE


@dataclass(frozen=True)
class MovedRange:
    """One token arc whose primary owner changed in a membership event.

    The arc is the clockwise half-open interval ``[start, end)`` (wrapping
    through zero when ``start >= end``): every token from ``start``
    inclusive up to but excluding ``end`` moved from ``old_owner`` to
    ``new_owner``. Matches :meth:`TokenRing.primary_for_token`'s
    ``bisect_right`` convention (a key hashing exactly onto a vnode token
    belongs to the *next* vnode clockwise).
    """

    start: int
    end: int
    old_owner: int
    new_owner: int

    def width(self) -> int:
        """Number of tokens in the arc (wraparound-aware)."""
        if self.end > self.start:
            return self.end - self.start
        return TOKEN_SPACE - self.start + self.end

    def contains(self, token: int) -> bool:
        """Whether ``token`` falls inside the (wrapping) arc."""
        if self.start < self.end:
            return self.start <= token < self.end
        return token >= self.start or token < self.end


class TokenRing:
    """Sorted token ring over an elastic set of physical nodes.

    Parameters
    ----------
    n_nodes:
        Number of physical nodes at construction (ids ``0..n_nodes-1``).
        Membership can change afterwards via :meth:`add_node` /
        :meth:`remove_node`; node ids may become sparse.
    vnodes:
        Virtual nodes per physical node. More vnodes -> better load spread;
        16 keeps placement balanced to within a few percent while keeping
        the walk short.
    """

    def __init__(self, n_nodes: int, vnodes: int = 16):
        if n_nodes < 1:
            raise ConfigError(f"ring needs >= 1 node, got {n_nodes}")
        if vnodes < 1:
            raise ConfigError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = int(vnodes)
        self._members: set = set(range(n_nodes))
        #: memoized ownership_fractions result; layout-dependent, so every
        #: membership change resets it.
        self._fractions: Optional[np.ndarray] = None

        pairs: List[Tuple[int, int]] = []
        for node in range(n_nodes):
            for v in range(vnodes):
                pairs.append((_vnode_token(node, v), node))
        pairs.sort()
        # An MD5 token collision would silently drop a vnode; it is
        # astronomically rare, so raise ConfigError loudly if it ever happens
        # rather than let placement quietly lose a token.
        tokens = [t for t, _ in pairs]
        if len(set(tokens)) != len(tokens):  # pragma: no cover - astronomically rare
            raise ConfigError("token collision on the ring; change vnode count")

        self._tokens: List[int] = tokens  # plain list: bisect on python ints
        self._owners = [owner for _, owner in pairs]

    # -- membership ----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Current number of member nodes."""
        return len(self._members)

    @property
    def members(self) -> Tuple[int, ...]:
        """Sorted node ids currently on the ring."""
        return tuple(sorted(self._members))

    def add_node(self, node_id: int) -> List[MovedRange]:
        """Join ``node_id``, inserting its vnode tokens incrementally.

        Returns the exact primary-ownership diff: every token range that
        moved from an existing node to the newcomer. O(vnodes log V) ring
        surgery plus O(vnodes) diff extraction.
        """
        node_id = int(node_id)
        if node_id in self._members:
            raise ConfigError(f"node {node_id} is already on the ring")
        old_tokens = list(self._tokens)
        old_owners = list(self._owners)
        for v in range(self.vnodes):
            t = _vnode_token(node_id, v)
            idx = bisect_right(self._tokens, t)
            if idx < len(self._tokens) and self._tokens[idx] == t:  # pragma: no cover
                raise ConfigError("token collision on the ring; change vnode count")
            self._tokens.insert(idx, t)
            self._owners.insert(idx, node_id)
        self._members.add(node_id)
        self._fractions = None
        return _ownership_diff(old_tokens, old_owners, self._tokens, self._owners)

    def remove_node(self, node_id: int) -> List[MovedRange]:
        """Leave ``node_id``, dropping its vnode tokens.

        Returns the exact primary-ownership diff: every token range that
        moved from the leaver to a surviving node.
        """
        node_id = int(node_id)
        if node_id not in self._members:
            raise ConfigError(f"node {node_id} is not on the ring")
        if len(self._members) == 1:
            raise ConfigError("cannot remove the last ring member")
        old_tokens = list(self._tokens)
        old_owners = list(self._owners)
        keep = [i for i, owner in enumerate(self._owners) if owner != node_id]
        self._tokens = [self._tokens[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]
        self._members.discard(node_id)
        self._fractions = None
        return _ownership_diff(old_tokens, old_owners, self._tokens, self._owners)

    # -- lookups -------------------------------------------------------------

    def _slot(self, token: int) -> int:
        return bisect_right(self._tokens, token) % len(self._owners)

    def slot_of(self, key: str) -> int:
        """Index of the vnode arc ``key`` hashes into: the unit of placement.

        Every key of one arc shares one clockwise walk. Slot indices shift
        on every membership change; drop anything keyed by them with it.
        """
        return self._slot(token_of(key))

    def primary_for_token(self, token: int) -> int:
        """Physical node owning the first vnode at or after ``token``."""
        return self._owners[self._slot(token)]

    def walk_from(self, slot: int) -> Iterator[int]:
        """Yield *distinct* physical nodes clockwise from arc ``slot``.

        Terminates after all member nodes have been yielded.
        """
        seen = set()
        owners = self._owners
        n = len(owners)
        n_members = len(self._members)
        for i in range(n):
            node = owners[(slot + i) % n]
            if node not in seen:
                seen.add(node)
                yield node
                if len(seen) == n_members:
                    return

    def walk(self, token: int) -> Iterator[int]:
        """Clockwise distinct-node walk starting at ``token``."""
        return self.walk_from(self._slot(token))

    def ownership_fractions(self) -> np.ndarray:
        """Exact fraction of the token space owned by each node.

        Computed in one O(V) pass over the token gaps: the arc ending at
        ``tokens[i]`` (clockwise from its predecessor) belongs to
        ``owners[i]``, so each node's share is the sum of its vnodes' gap
        widths. Entry ``i`` of the result is node id ``i``'s share
        (decommissioned ids, if any, read 0).

        The result is memoized per ring layout (membership changes
        invalidate it), so load monitors may poll every tick for one dict
        hit. Treat the returned array as read-only.
        """
        if self._fractions is not None:
            return self._fractions
        tokens, owners = self._tokens, self._owners
        fractions = np.zeros(max(self._members) + 1, dtype=np.float64)
        prev = tokens[-1] - TOKEN_SPACE  # wraparound arc ends at tokens[0]
        for t, owner in zip(tokens, owners):
            fractions[owner] += t - prev
            prev = t
        self._fractions = fractions / float(TOKEN_SPACE)
        return self._fractions

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TokenRing(nodes={self.n_nodes}, vnodes={self.vnodes})"


def _ownership_diff(
    old_tokens: Sequence[int],
    old_owners: Sequence[int],
    new_tokens: Sequence[int],
    new_owners: Sequence[int],
) -> List[MovedRange]:
    """Exact primary-ownership diff between two ring layouts.

    Both layouts partition the token space into arcs; the union of both
    token sets cuts the space into elementary arcs ``[b_i, b_{i+1})`` on
    which each layout's owner is constant (no vnode token of either layout
    lies strictly inside one). Arcs whose owner differs between the layouts
    are emitted, with consecutive same-transition arcs merged (including
    across the wraparound seam).

    Both layouts' token arrays are already sorted, so the elementary-arc
    owners are extracted with two linear merge cursors -- one O(V) pass
    total instead of a bisect per boundary per layout.
    """
    # Merge the two sorted token arrays into the deduplicated boundary list.
    boundaries: List[int] = []
    i, j = 0, 0
    n_old, n_new = len(old_tokens), len(new_tokens)
    while i < n_old or j < n_new:
        if j >= n_new or (i < n_old and old_tokens[i] <= new_tokens[j]):
            t = old_tokens[i]
            i += 1
            if j < n_new and new_tokens[j] == t:
                j += 1
        else:
            t = new_tokens[j]
            j += 1
        boundaries.append(t)
    n = len(boundaries)

    def arc_owners(tokens: Sequence[int], owners: Sequence[int]) -> List[int]:
        # Owner of the arc starting at each boundary: the owner of the first
        # vnode strictly after it (primary_for_token semantics). Boundaries
        # ascend, so one cursor sweeps the layout's token array once.
        n_tokens = len(tokens)
        out: List[int] = []
        cursor = bisect_right(tokens, boundaries[0])
        for b in boundaries:
            while cursor < n_tokens and tokens[cursor] <= b:
                cursor += 1
            out.append(owners[cursor % n_tokens])
        return out

    before_owners = arc_owners(old_tokens, old_owners)
    after_owners = arc_owners(new_tokens, new_owners)

    moved: List[MovedRange] = []
    for i, b in enumerate(boundaries):
        end = boundaries[(i + 1) % n]
        before = before_owners[i]
        after = after_owners[i]
        if before != after:
            if (
                moved
                and moved[-1].end == b
                and moved[-1].old_owner == before
                and moved[-1].new_owner == after
            ):
                moved[-1] = MovedRange(moved[-1].start, end, before, after)
            else:
                moved.append(MovedRange(b, end, before, after))
    # Merge across the wrap seam: the last arc ends where the first starts.
    if (
        len(moved) >= 2
        and moved[-1].end == moved[0].start
        and moved[0].old_owner == moved[-1].old_owner
        and moved[0].new_owner == moved[-1].new_owner
    ):
        last = moved.pop()
        moved[0] = MovedRange(last.start, moved[0].end, last.old_owner, last.new_owner)
    return moved
