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
planes). The bytes are exactly what
``json.JSONEncoder(separators=(",", ":"), default=_tag).encode`` writes,
but none of that class's Python shell runs per call:

- **one prebuilt C encoder.** ``json.encoder.c_make_encoder`` is called
  once, at import, with the arguments that encoder passes (a circular
  reference markers dict, ASCII escaping, ``allow_nan``), and
  :func:`dumps` is one call of it plus a join. The markers dict is shared
  across calls, so a failed encode clears it before re-raising;
- **frames without a wrapper dict.** :func:`encode` writes
  ``{"h":<name>,"a":`` from a per-name memo, then ``dumps(args)``, then
  ``}``;
- **a direct scanner.** :func:`decode` calls the decoder's C scanner
  itself, with the Version-reviving hook only when the text could hold a
  tag, and falls back to :data:`loads` -- the full decoder, with its
  whitespace skipping and ``json.JSONDecodeError`` -- whenever the scan
  does not consume the whole frame.

The file WAL (:mod:`repro.runtime.wal`) shares :func:`dumps` and
:data:`loads`. Types JSON does not know are tagged by one ``default``
hook, and the decoder revives them in its ``object_hook``:

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

A frame, and the record line a payload-free WAL append writes (the file
WAL builds it from a format string; its tests pin it to this text):

>>> encode("tm0.on_ack", (7, 1))
b'{"h":"tm0.on_ack","a":[7,1]}'
>>> decode(b'{"h":"tm0.on_ack","a":[7,1]}')
('tm0.on_ack', [7, 1])
>>> dumps({"lsn": 3, "txn": 7, "kind": "commit", "t": 0.25, "data": {}})
'{"lsn":3,"txn":7,"kind":"commit","t":0.25,"data":{}}'
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Dict, List, Tuple

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


#: id -> container being encoded: the C encoder's circular-reference
#: check. Empty between calls; an encode that raises leaves entries.
_markers: Dict[int, Any] = {}
if c_make_encoder is None:  # pragma: no cover - CPython ships the C encoder
    _iterencode = json.JSONEncoder(separators=(",", ":"), default=_tag).iterencode
else:
    _iterencode = c_make_encoder(
        _markers, _tag, encode_basestring_ascii, None, ":", ",", False, False, True
    )


def dumps(value: Any) -> str:
    """value -> compact JSON text, tags applied."""
    try:
        return "".join(_iterencode(value, 0))
    except BaseException:
        _markers.clear()
        raise


_decoder = json.JSONDecoder(object_hook=_revive)
#: JSON text -> fresh values, tags revived.
loads = _decoder.decode
#: the decoder's scanner, with and without the reviving hook.
_scan_tagged = _decoder.scan_once
_scan_plain = json.JSONDecoder().scan_once

#: handler name -> the frame text before its arguments.
_prefixes: Dict[str, str] = {}


def encode(name: str, args: Tuple[Any, ...]) -> bytes:
    """One wire frame: the registered handler name plus its arguments."""
    prefix = _prefixes.get(name)
    if prefix is None:
        prefix = _prefixes[name] = f'{{"h":{dumps(name)},"a":'
    try:  # dumps(args), inlined: this runs once per protocol message
        return f"{prefix}{''.join(_iterencode(args, 0))}}}".encode("utf-8")
    except BaseException:
        _markers.clear()
        raise


def decode(frame: bytes) -> Tuple[str, List[Any]]:
    """Parse a frame back into ``(handler_name, args)`` with fresh objects."""
    text = frame.decode("utf-8")
    # A tag can only be spelt out literally or behind a \u escape.
    scan = _scan_tagged if _VERSION_TAG in text or "\\u" in text else _scan_plain
    try:
        obj, end = scan(text, 0)
    except StopIteration:
        end = -1
    if end != len(text):
        obj = loads(text)  # surrounding whitespace, or the decode error
    return obj["h"], obj["a"]
