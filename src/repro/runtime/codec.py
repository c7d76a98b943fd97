"""The wire codec of the asyncio backend: JSON frames with tagged types.

Protocol messages between TM and participants carry Python values --
transaction ids, node ids, vote booleans, and (in prepare payloads)
``{key: Version}`` maps. The asyncio backend serializes every registered
protocol message through this codec so the run genuinely crosses a wire
boundary: a frame is ``encode``-d at the sender, carried as ``bytes``,
and ``decode``-d at the receiver into fresh objects (no shared references
between sender and receiver state machines).

The format is JSON (msgpack would work identically; the repository image
carries no msgpack, and frames here are small control messages, not data
planes). One module-level encoder and one decoder do all the work
(:data:`dumps` / :data:`loads`, shared with the file WAL): the C encoder
walks lists, tuples and dicts itself and calls back into Python only for
the types JSON does not know, and the decoder calls back once per JSON
object --

- :class:`~repro.cluster.versions.Version` ->
  ``{"__v__": [timestamp, seq, size]}``, revived from any dict whose
  *only* key is the tag;
- sets -> sorted lists (deterministic frames);
- anything else unknown -> :class:`~repro.common.errors.SimulationError`.

``None`` survives natively; tuples decode as lists (every protocol handler
normalizes with ``list()``/``dict()`` already). Dict keys are strings on
the wire (JSON stringifies int keys); integer-keyed protocol dicts do not
occur in registered messages (writes and read-version maps are keyed by
the string row key).
"""

from __future__ import annotations

import json
from typing import Any, List, Tuple

from repro.common.errors import SimulationError
from repro.cluster.versions import Version

__all__ = ["encode", "decode", "dumps", "loads"]

_VERSION_TAG = "__v__"


def _tag(value: Any) -> Any:
    """The encoder's ``default`` hook: tag what JSON cannot carry natively."""
    if isinstance(value, Version):
        return {_VERSION_TAG: [value.timestamp, value.write_id, value.size]}
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise SimulationError(
        f"cannot encode {type(value).__name__} on the wire: {value!r}"
    )


def _revive(obj: dict) -> Any:
    """The decoder's ``object_hook``: single-key tagged dicts become Versions."""
    if len(obj) == 1 and _VERSION_TAG in obj:
        t, seq, size = obj[_VERSION_TAG]
        return Version(float(t), int(seq), int(size))
    return obj


#: value -> compact JSON text / JSON text -> fresh values, tags applied.
dumps = json.JSONEncoder(separators=(",", ":"), default=_tag).encode
loads = json.JSONDecoder(object_hook=_revive).decode


def encode(name: str, args: Tuple[Any, ...]) -> bytes:
    """One wire frame: the registered handler name plus its arguments."""
    return dumps({"h": name, "a": args}).encode("utf-8")


def decode(frame: bytes) -> Tuple[str, List[Any]]:
    """Parse a frame back into ``(handler_name, args)`` with fresh objects."""
    obj = loads(frame.decode("utf-8"))
    return obj["h"], obj["a"]
