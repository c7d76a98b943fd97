"""File-backed write-ahead logs for the asyncio backend.

The simulator models durability by keeping
:class:`~repro.txn.wal.WriteAheadLog` records in memory across simulated
crashes. On the asyncio backend durability is real:
:class:`FileWriteAheadLog` appends every record as one JSON line to a
per-node log file (flushed at append time -- the force-write the commit
protocols assume), and :meth:`FileWriteAheadLog.replay` rebuilds a log
from disk exactly the way a restarted daemon would, re-deriving the
in-doubt and unfinished-TM-round sets from the records alone.

Record payloads pass through the wire codec's type tagging
(:func:`repro.runtime.codec.to_wire`), so ``{key: Version}`` write maps
survive the disk round-trip as real :class:`~repro.cluster.versions.Version`
objects.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.runtime.codec import from_wire, to_wire
from repro.txn.wal import WalRecord, WriteAheadLog

__all__ = ["FileWriteAheadLog"]


class FileWriteAheadLog(WriteAheadLog):
    """A :class:`WriteAheadLog` that also persists each record to disk."""

    def __init__(self, node_id: int, path: str):
        super().__init__(node_id)
        self.path = path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._fh = open(path, "a", encoding="utf-8")

    def append(self, kind: str, txn_id: int, time: float, **data: Any) -> WalRecord:
        rec = super().append(kind, txn_id, time, **data)
        self._fh.write(
            json.dumps(
                {
                    "lsn": rec.lsn,
                    "txn": rec.txn_id,
                    "kind": rec.kind,
                    "t": rec.time,
                    "data": to_wire(rec.data),
                },
                separators=(",", ":"),
            )
            + "\n"
        )
        self._fh.flush()
        return rec

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    @classmethod
    def replay(cls, node_id: int, path: str) -> "FileWriteAheadLog":
        """Rebuild a log from its file (the daemon-restart recovery path).

        Records re-append through :meth:`WriteAheadLog.append`, the one
        indexer, so the incremental in-doubt / unfinished-round sets come
        out identical to the pre-crash log's -- asserted by the runtime
        tests.
        """
        wal = cls(node_id, path)  # opening for append leaves the records in place
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                obj = json.loads(line)
                # The base class's append, unbound: it indexes the record
                # without re-persisting it (the file already holds it).
                WriteAheadLog.append(
                    wal, obj["kind"], obj["txn"], obj["t"], **from_wire(obj["data"])
                )
        return wal
