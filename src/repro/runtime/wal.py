"""File-backed write-ahead logs for the asyncio backend.

The simulator models durability by keeping
:class:`~repro.txn.wal.WriteAheadLog` records in memory across simulated
crashes. On the asyncio backend durability is real:
:class:`FileWriteAheadLog` appends every record as one JSON line to a
per-node log file, and :meth:`FileWriteAheadLog.replay` rebuilds a log
from disk exactly the way a restarted daemon would, re-deriving the
in-doubt and unfinished-TM-round sets from the records alone. The file
keeps every payload; memory keeps only what recovery reads, because each
line is written before the base log releases anything and a replay
releases, through the same :meth:`WriteAheadLog.append`, exactly what the
live log did.

The file is opened unbuffered and each record is a single ``write()`` of
the whole line, so the bytes have reached the OS before ``append`` returns
-- the force-write the commit protocols assume, at one syscall per record
and with nothing left in a user-space buffer to flush or lose.

A line is ``{"lsn":…,"txn":…,"kind":…,"t":…,"data":{…}}``, the wire
codec's compact JSON (:func:`repro.runtime.codec.dumps`). Most records
carry no payload (every kind but ``prepare`` and ``tm-begin``), and for
those, when the time is finite, ``append`` writes the same bytes from one
f-string -- a per-kind fragment plus ``float.__repr__``, the encoder's own
float text -- without calling the encoder. Payload records and non-finite
times go through ``dumps``, so ``{key: Version}`` write maps survive the
disk round-trip as real :class:`~repro.cluster.versions.Version` objects
when :meth:`~FileWriteAheadLog.replay` reads them back with
:data:`~repro.runtime.codec.loads`.
"""

from __future__ import annotations

import os
from math import isfinite
from typing import Any

from repro.runtime.codec import dumps, loads
from repro.txn.wal import (
    REC_ABORT,
    REC_COMMIT,
    REC_PRECOMMIT,
    REC_PREPARE,
    REC_TM_ABORT,
    REC_TM_BEGIN,
    REC_TM_COMMIT,
    REC_TM_END,
    REC_TM_PRECOMMIT,
    WriteAheadLog,
)

__all__ = ["FileWriteAheadLog"]

#: kind -> the text of a payload-free line between its txn id and its time.
_KIND_T = {
    kind: f',"kind":{dumps(kind)},"t":'
    for kind in (
        REC_PREPARE, REC_PRECOMMIT, REC_COMMIT, REC_ABORT, REC_TM_BEGIN,
        REC_TM_PRECOMMIT, REC_TM_COMMIT, REC_TM_ABORT, REC_TM_END,
    )
}


class FileWriteAheadLog(WriteAheadLog):
    """A :class:`WriteAheadLog` that also persists each record to disk."""

    def __init__(self, node_id: int, path: str):
        super().__init__(node_id)
        self.path = path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._fh = open(path, "ab", buffering=0)

    def append(self, kind: str, txn_id: int, time: float, **data: Any) -> int:
        lsn = super().append(kind, txn_id, time, **data)
        t = self.times[lsn]
        if data or not isfinite(t):
            line = dumps({"lsn": lsn, "txn": self.txn_ids[lsn], "kind": kind,
                          "t": t, "data": data}) + "\n"
        else:
            line = (f'{{"lsn":{lsn},"txn":{self.txn_ids[lsn]}{_KIND_T[kind]}'
                    f'{t!r},"data":{{}}}}\n')
        self._fh.write(line.encode("utf-8"))
        return lsn

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    @classmethod
    def replay(cls, node_id: int, path: str) -> "FileWriteAheadLog":
        """Rebuild a log from its file (the daemon-restart recovery path).

        Records re-append through :meth:`WriteAheadLog.append`, the one
        indexer, so the incremental in-doubt / unfinished-round sets and
        the payloads held in memory come out identical to the pre-crash
        log's -- asserted by the runtime tests.
        """
        wal = cls(node_id, path)  # opening for append leaves the records in place
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                obj = loads(line)
                # The base class's append, unbound: it indexes the record
                # without re-persisting it (the file already holds it).
                WriteAheadLog.append(
                    wal, obj["kind"], obj["txn"], obj["t"], **obj["data"]
                )
        return wal
