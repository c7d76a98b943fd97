"""Versioned values and last-write-wins reconciliation.

The simulator does not move real payloads around -- a value is its metadata:
a write timestamp (the coordinator's clock when the write *started*, which
is exactly the ``Xw`` of the paper's Figure 1), a unique write id for
total-order tie-breaking, and the payload size in bytes (all the cost and
bandwidth models need).

Reconciliation is Cassandra's: last-write-wins on ``(timestamp, write_id)``.
"""

from __future__ import annotations

__all__ = ["Version", "NONE_VERSION"]


class Version:
    """An immutable write version.

    Ordering is total: by timestamp, then by write id (unique per write),
    so concurrent writes reconcile deterministically on every replica.
    """

    __slots__ = ("timestamp", "write_id", "size")

    def __init__(self, timestamp: float, write_id: int, size: int):
        self.timestamp = timestamp
        self.write_id = write_id
        self.size = size

    def newer_than(self, other: "Version") -> bool:
        """Strict last-write-wins comparison."""
        if self.timestamp != other.timestamp:
            return self.timestamp > other.timestamp
        return self.write_id > other.write_id

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Version)
            and self.write_id == other.write_id
            and self.timestamp == other.timestamp
        )

    def __hash__(self) -> int:
        return hash((self.timestamp, self.write_id))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Version(t={self.timestamp:.6f}, id={self.write_id}, {self.size}B)"


#: Sentinel "no value ever written": older than every real version.
NONE_VERSION = Version(timestamp=-1.0, write_id=-1, size=0)
