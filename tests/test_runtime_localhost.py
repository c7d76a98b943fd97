"""Tests for the asyncio localhost runtime: codec, file WALs, runs, xval.

Covers the pieces the transport-conformance suite does not: the JSON wire
codec's type tagging, :class:`~repro.runtime.wal.FileWriteAheadLog` disk
replay, end-to-end ``backend="asyncio"`` runs (WAL files, the wall-clock
guard), the same spec on the deterministic sim backend (fail-stop reads
included), and the cross-validation trend checker's verdict logic.
"""

import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.cluster.replication import SimpleStrategy
from repro.cluster.store import ReplicatedStore
from repro.common.errors import ConfigError, SimulationError
from repro.cluster.versions import Version
from repro.cost.pricing import FREE_PRIVATE_CLOUD
from repro.experiments.platforms import Platform
from repro.net.topology import Datacenter, Topology
from repro.runtime import codec
from repro.runtime.aio import AsyncioTransport
from repro.runtime.localhost import LocalhostSpec
from repro.runtime.sim import SimTransport
from repro.runtime.wal import FileWriteAheadLog
from repro.runtime.xval import (
    XvalCheck,
    XvalReport,
    _trend_failures,
    cross_validate,
    default_xval_spec,
)
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
from repro.txn.api import TransactionalStore


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    st.builds(
        Version,
        st.one_of(st.integers(0, 10**6), st.floats(0, 1e6)),
        st.integers(0, 10**9),
        st.integers(0, 10**6),
    ),
)
def _nested(scalars):
    """``scalars`` in the containers a protocol message may carry, a few
    levels deep."""
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=6).filter("__v__".__ne__), inner, max_size=4),
            st.sets(st.integers(), max_size=4),
            st.frozensets(st.text(max_size=4), max_size=4),
        ),
        max_leaves=12,
    )


#: everything a protocol message may carry
_wire_values = _nested(_scalars)
#: ... plus what does not survive ``==``: nan and the infinities (and,
#: drawn on purpose, non-ASCII text, which the encoder escapes)
_any_wire_values = _nested(
    st.one_of(
        _scalars,
        st.floats(),
        st.text(st.characters(min_codepoint=0x80), min_size=1, max_size=4),
    )
)


def _reference_dumps(value):
    """The stdlib encoder the codec must match byte for byte."""
    return json.JSONEncoder(separators=(",", ":"), default=codec._tag).encode(value)


def _exact(value):
    """``value`` as data whose ``==`` also tells apart what plain ``==``
    conflates: int / float / bool, a Version / its fields, and nan."""
    if isinstance(value, Version):
        return ("Version", repr(value.timestamp), repr(value.write_id), repr(value.size))
    if isinstance(value, list):
        return ("list", [_exact(v) for v in value])
    if isinstance(value, dict):
        return ("dict", [(k, _exact(v)) for k, v in value.items()])
    return (type(value).__name__, repr(value))


@functools.lru_cache(maxsize=None)
def _node0_handler_names():
    """Every handler name a ``TransactionalStore`` registers for node 0's
    participant and TM, read off a real deployment."""
    topology = _topology(1)
    transport = AsyncioTransport(topology)
    try:
        TransactionalStore(ReplicatedStore(transport, topology, SimpleStrategy(rf=2)))
        return tuple(sorted(
            name for name in transport._handlers if name.split(".")[0] in ("p0", "tm0")
        ))
    finally:
        transport.close()


def _canon(value):
    """What ``value`` must look like after one hop, as plain comparable data."""
    if isinstance(value, Version):
        # Field types matter: a revived Version is (float, int, int).
        return ("Version", float(value.timestamp), value.write_id, value.size)
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, dict):
        return {k: _canon(v) for k, v in value.items()}
    return value


def _identities(value):
    """ids of every container and Version reachable from ``value``."""
    if isinstance(value, Version):
        return {id(value)}
    if isinstance(value, dict):
        children = value.values()
    elif isinstance(value, (list, tuple, set, frozenset)):
        children = value
    else:
        return set()
    return {id(value)}.union(*(_identities(child) for child in children))


class TestLazyExports:
    """``repro.runtime`` resolves the localhost names on first access."""

    @pytest.mark.parametrize(
        "name, module",
        [
            ("AsyncioTransport", "repro.runtime.aio"),
            ("FileWriteAheadLog", "repro.runtime.wal"),
            ("LocalhostSpec", "repro.runtime.localhost"),
        ],
    )
    def test_lazy_name_is_the_defining_modules_object(self, name, module):
        import importlib

        import repro.runtime as runtime

        assert getattr(runtime, name) is getattr(importlib.import_module(module), name)

    def test_unknown_name_raises_attribute_error(self):
        import repro.runtime as runtime

        with pytest.raises(AttributeError, match="no attribute 'Nope'"):
            runtime.Nope
        assert not hasattr(runtime, "Nope")

    def test_importing_repro_leaves_the_wall_clock_machinery_out(self):
        # A fresh interpreter: this one has long since imported asyncio.
        probe = (
            "import sys, repro, repro.runtime\n"
            "heavy = ['asyncio', 'ssl', 'socket', 'subprocess', 'multiprocessing']\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
            "print(repro.runtime.AsyncioTransport.__module__)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        paths = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True,
        )
        assert done.stdout.split("\n")[:2] == ["[]", "repro.runtime.aio"]

    def test_star_import_binds_every_export(self):
        import repro.runtime as runtime

        ns = {}
        exec("from repro.runtime import *", ns)
        assert set(runtime.__all__) <= set(ns)


class TestWireCodec:
    def test_roundtrip_scalars_and_containers(self):
        name, args = codec.decode(
            codec.encode("p1.on_vote", (7, True, None, 1.5, "key", [1, 2]))
        )
        assert name == "p1.on_vote"
        assert args == [7, True, None, 1.5, "key", [1, 2]]

    def test_version_maps_survive_the_wire(self):
        writes = {"row1": Version(1.25, 3, 64), "row2": Version(2.0, 9, 128)}
        _, args = codec.decode(codec.encode("p0.on_prepare", (42, writes)))
        assert args[0] == 42
        revived = args[1]
        assert revived == writes
        assert isinstance(revived["row1"], Version)
        assert revived["row1"].size == 64
        # Fresh objects: decoding shares nothing with the sender's state.
        assert revived["row1"] is not writes["row1"]

    def test_tuples_and_sets_become_lists(self):
        _, args = codec.decode(codec.encode("h", ((1, 2), {3, 1, 2}, frozenset("ba"))))
        assert args == [[1, 2], [1, 2, 3], ["a", "b"]]  # sets sorted for determinism

    def test_dict_keys_are_stringified(self):
        _, args = codec.decode(codec.encode("h", ({1: "a"},)))
        assert args == [{"1": "a"}]

    def test_version_tag_requires_exact_shape(self):
        # A dict that merely *contains* the tag key plus other keys is user
        # data, not a tagged Version.
        _, (back,) = codec.decode(
            codec.encode("h", ({"__v__": [1.0, 2, 3], "other": 1},))
        )
        assert back == {"__v__": [1.0, 2, 3], "other": 1}
        _, (alone,) = codec.decode(codec.encode("h", ({"__v__": [1, 2, 3]},)))
        assert isinstance(alone, Version)

    def test_unencodable_object_is_rejected(self):
        with pytest.raises(SimulationError):
            codec.encode("h", (object(),))
        with pytest.raises(SimulationError):
            codec.encode("h", ({"k": [1, {"deep": 1j}]},))  # found at any depth

    def test_frames_are_compact_utf8_json(self):
        frame = codec.encode("h", (1,))
        assert frame == b'{"h":"h","a":[1]}'
        assert json.loads(frame.decode("utf-8")) == {"h": "h", "a": [1]}

    def test_wal_lines_share_the_frame_tagging(self):
        # One encoder, one decoder: what the file WAL writes and replays is
        # tagged by the same two hooks as a wire frame.
        line = codec.dumps({"data": {"writes": {"k": Version(1.0, 2, 3)}, "co": {2, 1}}})
        assert line == '{"data":{"writes":{"k":{"__v__":[1.0,2,3]}},"co":[1,2]}}'
        back = codec.loads(line)["data"]
        assert isinstance(back["writes"]["k"], Version) and back["co"] == [1, 2]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_wire_values, max_size=4))
    def test_roundtrip_property(self, args):
        name, back = codec.decode(codec.encode("p0.h", tuple(args)))
        assert name == "p0.h"
        assert _canon(back) == _canon(args)
        # Fresh objects at the receiver: no container or Version is shared.
        assert not (_identities(back) & _identities(args))


class TestCodecByteIdentity:
    """The prebuilt encoder and the direct scanner against the stdlib
    encoder and decoder the codec must match exactly."""

    def test_every_registered_handler_is_covered(self):
        names = _node0_handler_names()
        assert len(names) == 10
        assert {"p0.on_prepare", "tm0.on_ack", "tm0.on_status_query"} <= set(names)

    @settings(max_examples=150, deadline=None)
    @given(_any_wire_values)
    @example(float("nan"))
    @example([float("inf"), -float("inf"), -0.0, 1e22, 1e-7])
    @example({"ké": ["☃", "\U0001f600"], "v": Version(1.5, 2, 3)})
    @example([True, False, None, 1, 1.0, {3, 1, 2}, frozenset("ba")])
    def test_dumps_matches_the_reference_encoder(self, value):
        assert codec.dumps(value) == _reference_dumps(value)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_any_wire_values, max_size=4))
    @example([7, {"key1": Version(0.5, 4, 64)}, {}, [1, 2]])
    @example([float("nan"), "é"])
    def test_frames_match_the_reference_encoder_for_every_handler(self, args):
        for name in _node0_handler_names():
            frame = codec.encode(name, tuple(args))
            assert frame == _reference_dumps({"h": name, "a": tuple(args)}).encode("utf-8")
            # The direct scanner returns exactly what the full decoder does.
            obj = codec.loads(frame.decode("utf-8"))
            assert _exact(list(codec.decode(frame))) == _exact([obj["h"], obj["a"]])

    def test_an_escaped_tag_is_revived_like_a_literal_one(self):
        frame = b'{"h":"h","a":[{"\\u005f_v__":[1.5,2,3]}]}'
        _, (back,) = codec.decode(frame)
        assert isinstance(back, Version) and (back.timestamp, back.write_id) == (1.5, 2)

    def test_surrounding_whitespace_decodes_like_the_full_decoder(self):
        assert codec.decode(b' {"h":"h","a":[1]}\n') == ("h", [1])

    @pytest.mark.parametrize("frame", [
        b'{"h":"h","a":[1]}x',
        b'{"h":"h","a":[1]}{}',
        b"",
        b"nope",
        b'{"h":',
        b'{"h":"h","a":[1]',
    ])
    def test_trailing_data_or_a_malformed_frame_is_a_decode_error(self, frame):
        with pytest.raises(json.JSONDecodeError):
            codec.decode(frame)

    def test_a_failed_encode_leaves_the_encoder_usable(self):
        # The C encoder marks each container it enters and leaves the marks
        # behind when it raises; the same list, re-encoded after the bad
        # element is gone, must not read as a circular reference.
        payload = [1, {"x": object()}]
        with pytest.raises(SimulationError):
            codec.encode("h", (payload,))
        payload[1] = {"x": 2}
        assert codec.encode("h", (payload,)) == b'{"h":"h","a":[[1,{"x":2}]]}'
        payload.append(1j)  # and the same through dumps, the WAL's path
        with pytest.raises(SimulationError):
            codec.dumps({"k": payload})
        payload.pop()
        assert codec.dumps({"k": payload}) == '{"k":[1,{"x":2}]}'

    def test_a_circular_structure_is_a_value_error(self):
        loop = [1]
        loop.append(loop)
        nest = {"a": {}}
        nest["a"]["b"] = nest
        for value in (loop, nest):
            with pytest.raises(ValueError, match="Circular reference"):
                codec.encode("h", (value,))
            with pytest.raises(ValueError, match="Circular reference"):
                codec.dumps(value)
        assert codec.encode("h", (1,)) == b'{"h":"h","a":[1]}'


_WAL_KINDS = (
    REC_PREPARE, REC_PRECOMMIT, REC_COMMIT, REC_ABORT, REC_TM_BEGIN,
    REC_TM_PRECOMMIT, REC_TM_COMMIT, REC_TM_ABORT, REC_TM_END,
)
#: the payload the protocols log with a kind (the rest log none)
_WAL_DATA = {
    REC_PREPARE: {"tm_node": 0, "writes": {"k": Version(0.5, 4, 64)}, "co": [1]},
    REC_TM_BEGIN: {"participants": [0, 1]},
}


class TestFileWriteAheadLog:
    def test_appends_persist_and_replay_identically(self, tmp_path):
        path = str(tmp_path / "node0.wal")
        wal = FileWriteAheadLog(0, path)
        writes = {"k": Version(1.0, 1, 10)}
        wal.append(REC_PREPARE, 7, 0.5, writes=writes)
        wal.append(REC_TM_BEGIN, 8, 0.6, participants=[0, 1])
        wal.append(REC_COMMIT, 7, 0.9)
        wal.append(REC_PREPARE, 9, 1.0, writes={"j": Version(2.0, 3, 20)})
        assert wal.in_doubt() == [9]  # the commit resolved txn 7
        assert [r.txn_id for r in wal.tm_unfinished()] == [8]
        assert wal.prepare_record(7).data == {}  # released in memory ...
        wal.close()

        # ... but the file keeps every payload, typed.
        with open(path, encoding="utf-8") as fh:
            first = codec.loads(fh.readline())
        assert first["data"]["writes"] == writes
        assert isinstance(first["data"]["writes"]["k"], Version)

        replayed = FileWriteAheadLog.replay(0, path)
        assert len(replayed) == len(wal)
        assert [r.kind for r in replayed.records] == [
            REC_PREPARE,
            REC_TM_BEGIN,
            REC_COMMIT,
            REC_PREPARE,
        ]
        # The incremental in-doubt / unfinished sets re-derive from records,
        # and the replay releases what the live log released.
        assert replayed.in_doubt() == wal.in_doubt()
        assert [r.txn_id for r in replayed.tm_unfinished()] == [8]
        assert sorted(replayed._data) == sorted(wal._data) == [1, 3]
        # Typed payloads survive the disk round trip.
        rec = replayed.prepare_record(9)
        assert rec.data["writes"] == {"j": Version(2.0, 3, 20)}
        assert isinstance(rec.data["writes"]["j"], Version)
        replayed.close()

    def test_each_append_is_on_disk_when_it_returns(self, tmp_path):
        # The durability point is append() itself: one unbuffered write, so
        # an independent reader sees the whole line with no flush or close.
        path = str(tmp_path / "node0.wal")
        wal = FileWriteAheadLog(0, path)
        appends = [
            (REC_TM_BEGIN, {"participants": [0, 1]}),
            (REC_PREPARE, {"tm_node": 0, "writes": {"k": Version(0.5, 4, 64)}, "co": [1]}),
            (REC_COMMIT, {}),
            (REC_TM_END, {}),
        ]
        with open(path, "rb") as reader:
            for i, (kind, data) in enumerate(appends):
                lsn = wal.append(kind, 9, 0.1 * i, **data)
                line = reader.readline()
                assert line.endswith(b"\n") and reader.read() == b""
                obj = codec.loads(line.decode("utf-8"))
                rec = wal.records[lsn]
                assert (obj["lsn"], obj["txn"], obj["kind"], obj["t"]) == (
                    rec.lsn, 9, kind, rec.time,
                )
                assert obj["data"] == rec.data
        wal.close()

    def test_lines_are_the_reference_encoders_bytes(self, tmp_path):
        # Every kind, with and without a payload, at finite and non-finite
        # times: the format-string line and the encoder's line are one text.
        path = str(tmp_path / "node0.wal")
        wal = FileWriteAheadLog(0, path)
        times = (0.25, 3, 1e-7, 1e22, -0.0, 0.1 + 0.2, math.nan, math.inf, -math.inf)
        expected = []
        for kind in _WAL_KINDS:
            for data in ({}, _WAL_DATA.get(kind, {"pledge": True})):
                for t in times:
                    txn = len(expected) % 7 + 1  # each txn sees a mix of kinds
                    lsn = wal.append(kind, txn, t, **data)
                    expected.append(_reference_dumps(
                        {"lsn": lsn, "txn": txn, "kind": kind, "t": float(t), "data": data}
                    ) + "\n")
        wal.close()
        with open(path, "rb") as fh:
            written = fh.read()
        assert written == "".join(expected).encode("utf-8")
        assert written.startswith(b'{"lsn":0,"txn":1,"kind":"prepare","t":0.25,"data":{}}\n')

        replayed = FileWriteAheadLog.replay(0, path)
        replayed.close()
        assert _exact([[r.lsn, r.txn_id, r.kind, r.time, r.data] for r in replayed.records]) == (
            _exact([[r.lsn, r.txn_id, r.kind, r.time, r.data] for r in wal.records])
        )
        assert replayed.in_doubt() == wal.in_doubt() == wal.in_doubt_scan()
        assert [r.lsn for r in replayed.tm_unfinished()] == [
            r.lsn for r in wal.tm_unfinished()
        ]
        for txn_id in range(1, 8):
            for query in ("decision_for", "tm_decision", "precommitted", "tm_precommitted"):
                assert getattr(replayed, query)(txn_id) == getattr(wal, query)(txn_id)
            got, want = replayed.prepare_record(txn_id), wal.prepare_record(txn_id)
            assert (got and got.lsn) == (want and want.lsn)

    def test_replay_preserves_in_doubt_transactions(self, tmp_path):
        path = str(tmp_path / "node1.wal")
        wal = FileWriteAheadLog(1, path)
        wal.append(REC_PREPARE, 3, 0.1, writes={})
        wal.close()
        replayed = FileWriteAheadLog.replay(1, path)
        assert replayed.in_doubt() == [3]
        replayed.close()

    def test_replay_does_not_rewrite_the_file(self, tmp_path):
        path = str(tmp_path / "node2.wal")
        wal = FileWriteAheadLog(2, path)
        wal.append(REC_PREPARE, 1, 0.1, writes={})
        wal.close()
        size_before = os.path.getsize(path)
        FileWriteAheadLog.replay(2, path).close()
        assert os.path.getsize(path) == size_before

    def test_replay_indexes_every_record_kind_like_the_live_log(self, tmp_path):
        path = str(tmp_path / "node3.wal")
        wal = FileWriteAheadLog(3, path)
        # txn 1: a full 3PC round on both roles, finished.
        wal.append(REC_TM_BEGIN, 1, 0.10, participants=[3, 4])
        wal.append(REC_PREPARE, 1, 0.11, tm_node=3, writes={}, co=[4])
        wal.append(REC_TM_PRECOMMIT, 1, 0.12)
        wal.append(REC_PRECOMMIT, 1, 0.13)
        wal.append(REC_TM_COMMIT, 1, 0.14)
        wal.append(REC_COMMIT, 1, 0.15)
        wal.append(REC_TM_END, 1, 0.16)
        # txn 2: a refusal pledge, then the late PREPARE it forbids.
        wal.append(REC_ABORT, 2, 0.20, pledge=True)
        wal.append(REC_PREPARE, 2, 0.21, tm_node=4, writes={}, co=[])
        # txn 3: prepared and pre-committed, never decided (in doubt).
        wal.append(REC_PREPARE, 3, 0.30, tm_node=4, writes={"k": Version(0.3, 3, 8)}, co=[4])
        wal.append(REC_PRECOMMIT, 3, 0.31)
        # txn 4: TM aborted, acks still outstanding (unfinished round).
        wal.append(REC_TM_BEGIN, 4, 0.40, participants=[4])
        wal.append(REC_TM_ABORT, 4, 0.41)
        # txn 1 again: a second tm-begin after its tm-end stays finished.
        wal.append(REC_TM_BEGIN, 1, 0.50, participants=[3])
        # txn 5: an open 3PC round at the barrier.
        wal.append(REC_TM_BEGIN, 5, 0.60, participants=[3, 4])
        wal.append(REC_TM_PRECOMMIT, 5, 0.61)
        wal.close()

        replayed = FileWriteAheadLog.replay(3, path)
        assert [(r.lsn, r.txn_id, r.kind, r.time, r.data) for r in replayed.records] == [
            (r.lsn, r.txn_id, r.kind, r.time, r.data) for r in wal.records
        ]
        assert replayed.in_doubt() == wal.in_doubt() == replayed.in_doubt_scan() == [3]
        for log in (wal, replayed):
            assert [r.lsn for r in log.tm_unfinished()] == [
                r.lsn for r in log.tm_unfinished_scan()
            ]
        assert [r.txn_id for r in replayed.tm_unfinished()] == [
            r.txn_id for r in wal.tm_unfinished()
        ] == [4, 5]
        assert replayed.precommitted(3) and replayed.tm_precommitted(5)
        replayed.close()

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_WAL_KINDS), st.integers(1, 3)), max_size=30))
    @example([(REC_ABORT, 1), (REC_PREPARE, 1)])  # a pledge, then the late PREPARE
    @example([(REC_TM_BEGIN, 1), (REC_TM_END, 1), (REC_TM_BEGIN, 1)])
    @example([(REC_TM_BEGIN, 1), (REC_TM_BEGIN, 1)])
    @example([(REC_COMMIT, 1), (REC_ABORT, 1), (REC_TM_ABORT, 2), (REC_TM_COMMIT, 2)])
    def test_index_equals_a_scan_of_the_records(self, appends):
        # Every O(1) index answer, on the live log and on its replay, against
        # a reference that only reads ``records``.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "node0.wal")
            wal = FileWriteAheadLog(0, path)
            for i, (kind, txn_id) in enumerate(appends):
                wal.append(kind, txn_id, 0.1 * i, **_WAL_DATA.get(kind, {}))
            wal.close()
            replayed = FileWriteAheadLog.replay(0, path)
            replayed.close()
        records = wal.records
        assert [(r.txn_id, r.kind) for r in replayed.records] == [
            (txn_id, kind) for kind, txn_id in appends
        ]

        def first(txn_id, *kinds):
            hits = (r for r in records if r.txn_id == txn_id and r.kind in kinds)
            return next(hits, None)

        def verdict(rec):
            return None if rec is None else rec.kind.replace("tm-", "")

        for log in (wal, replayed):
            for txn_id in (1, 2, 3, 4):  # 4 is never logged
                assert log.decision_for(txn_id) == verdict(
                    first(txn_id, REC_COMMIT, REC_ABORT)
                )
                assert log.tm_decision(txn_id) == verdict(
                    first(txn_id, REC_TM_COMMIT, REC_TM_ABORT)
                )
                assert log.precommitted(txn_id) is (
                    first(txn_id, REC_PRECOMMIT) is not None
                )
                assert log.tm_precommitted(txn_id) is (
                    first(txn_id, REC_TM_PRECOMMIT) is not None
                )
                prepare = first(txn_id, REC_PREPARE)
                got = log.prepare_record(txn_id)
                assert (got and got.lsn) == (prepare and prepare.lsn)
            in_doubt = [
                r.txn_id
                for r in records
                if r is first(r.txn_id, REC_PREPARE)
                and first(r.txn_id, REC_COMMIT, REC_ABORT) is None
            ]
            assert log.in_doubt() == in_doubt == log.in_doubt_scan()
            unfinished = [
                r.lsn
                for r in records
                if r is first(r.txn_id, REC_TM_BEGIN)
                and first(r.txn_id, REC_TM_END) is None
            ]
            assert [r.lsn for r in log.tm_unfinished()] == unfinished

    def test_matches_in_memory_wal_semantics(self, tmp_path):
        # The file-backed log is the in-memory WriteAheadLog plus disk; the
        # derived sets must agree record-for-record.
        mem = WriteAheadLog(0)
        disk = FileWriteAheadLog(0, str(tmp_path / "twin.wal"))
        for wal in (mem, disk):
            wal.append(REC_PREPARE, 1, 0.1, writes={})
            wal.append(REC_PREPARE, 2, 0.2, writes={})
            wal.append(REC_COMMIT, 1, 0.3)
        assert disk.in_doubt() == mem.in_doubt() == [2]
        assert disk.decision_for(1) == mem.decision_for(1) == REC_COMMIT
        disk.close()


def _topology(n_dcs):
    return Topology(
        [Datacenter(f"dc{i}", f"region{i}") for i in range(n_dcs)], [3] * n_dcs
    )


def _smoke_spec(n_dcs=1, time_scale=0.02, wall_timeout=30.0, wal_dir=None, **overrides):
    """A small asyncio spec: 3 nodes per DC, RF 2, 20 keys with 2 hot."""
    spec = default_xval_spec(
        txns=8, clients=2, seed=5, time_scale=time_scale, wall_timeout=wall_timeout
    )
    platform = Platform(
        name="smoke",
        topology_factory=lambda: _topology(n_dcs),
        strategy_factory=lambda: SimpleStrategy(rf=2),
        prices=FREE_PRIVATE_CLOUD,
        default_record_count=20,
        default_ops=8,
        default_clients=2,
    )
    return replace(
        spec,
        platform=platform,
        txn_workload=replace(spec.txn_workload, record_count=20,
                             distribution_kwargs={"hot_set_fraction": 0.1,
                                                  "hot_opn_fraction": 0.5}),
        localhost=LocalhostSpec(time_scale=time_scale, wall_timeout=wall_timeout,
                                wal_dir=wal_dir),
        **overrides,
    )


class TestAsyncioRuns:
    def test_smoke_run_completes_every_txn(self, tmp_path):
        out = repro.run(_smoke_spec(wal_dir=str(tmp_path)))
        assert not out.timed_out
        txn = out.report.txn
        assert txn["txns"] == 8
        assert txn["commits"] + sum(txn["aborts"].values()) == 8
        assert out.report.duration > 0
        # Real per-node WAL files were written and carry protocol records.
        wal_files = sorted(os.listdir(tmp_path))
        assert wal_files == [f"node{i}.wal" for i in range(3)]
        assert any(os.path.getsize(tmp_path / f) > 0 for f in wal_files)

    def test_self_made_wal_dir_is_removed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        repro.run(_smoke_spec())
        assert os.listdir(tmp_path) == []

    def test_wall_timeout_reports_partial_run(self):
        # An absurdly small wall cap: the guard must fire and still hand
        # back a well-formed partial report.
        out = repro.run(
            _smoke_spec(ops=500, wall_timeout=0.05, time_scale=1.0)
        )
        assert out.timed_out is True
        assert out.report.txn["txns"] < 500


class TestSimTwin:
    def test_twin_is_deterministic(self):
        spec = replace(_smoke_spec(), backend="sim")
        a, b = repro.run(spec), repro.run(spec)
        assert dataclasses.asdict(a.report) == dataclasses.asdict(b.report)

    def test_twin_completes_and_reports_the_asyncio_shape(self):
        twin = repro.run(replace(_smoke_spec(), backend="sim"))
        assert twin.timed_out is False
        assert twin.report.txn["txns"] == 8
        # The same report fields and txn keys: xval compares them blindly.
        aio = repro.run(_smoke_spec())
        assert set(twin.report.txn) == set(aio.report.txn)
        assert twin.report.policy == aio.report.policy == "one"

    def test_replica_crashing_mid_read_fails_the_read(self):
        # Fail-stop: the only replica of the key dies while the read's round
        # trip is on the WAN; it must not answer, so the read times out, the
        # transaction aborts read-failed and the store counts the failure.
        topology = _topology(2)
        transport = SimTransport(topology)
        store = ReplicatedStore(transport, topology, SimpleStrategy(rf=1))
        tstore = TransactionalStore(store)
        (replica,) = store.replica_sets("k")[0]
        remote = next(n for n in range(6) if topology.dc_of(n) != topology.dc_of(replica))
        outcomes = []
        txn = tstore.begin(coordinator=remote)
        txn.read("k")
        txn.write("k", 10)
        txn.commit(outcomes.append)
        transport.post_at(0.01, store.on_node_crash, replica)  # RTT is 80 ms
        transport.run(until=store.read_timeout + 1.0)
        assert [(o.status, o.reason) for o in outcomes] == [("aborted", "read-failed")]
        assert store.summary()["failures"] == {"read_timeout": 1}
        assert store.nodes[replica].dropped_while_down == 1
        assert store.ops_completed() == 0


class TestXvalVerdicts:
    def test_trend_checker_flags_opposite_moves(self):
        fails = _trend_failures(
            "abort_rate",
            [0.0, 0.5, 0.95],
            [0.10, 0.40, 0.60],  # sim rises twice
            [0.12, 0.02, 0.70],  # asyncio falls on the first step
            deadband=0.05,
        )
        assert len(fails) == 1
        assert "0.00->0.50" in fails[0]

    def test_trend_checker_ignores_deadband_noise(self):
        assert (
            _trend_failures(
                "stale_rate",
                [0.0, 0.5],
                [0.10, 0.14],  # sim move within the deadband: step is flat
                [0.30, 0.10],
                deadband=0.05,
            )
            == []
        )
        assert (
            _trend_failures(
                "stale_rate",
                [0.0, 0.5],
                [0.10, 0.40],
                [0.30, 0.28],  # asyncio move within the deadband: noise
                deadband=0.05,
            )
            == []
        )

    def test_report_passes_only_when_everything_agrees(self):
        ok = XvalCheck(0.5, 0.1, 0.15, 0.0, 0.1, 5.0, 6.0, False)
        bad = XvalCheck(0.9, 0.1, 0.15, 0.0, 0.1, 5.0, 6.0, False, failures=["gap"])
        assert XvalReport([ok], 0.2, 0.25, 0.05).passed
        assert not XvalReport([ok, bad], 0.2, 0.25, 0.05).passed
        assert not XvalReport([ok], 0.2, 0.25, 0.05, trend_failures=["t"]).passed

    def test_report_to_dict_carries_per_level_metrics(self):
        check = XvalCheck(0.5, 0.1, 0.15, 0.0, 0.1, 5.0, 6.0, False)
        d = XvalReport([check], 0.2, 0.25, 0.05).to_dict()
        assert d["passed"] is True
        assert d["levels"][0]["hot_fraction"] == 0.5
        assert d["levels"][0]["aio_commit_ms"] == 6.0

    def test_cross_validate_needs_two_levels(self):
        with pytest.raises(ConfigError):
            cross_validate(hot_fractions=(0.5,))

    def test_cross_validate_needs_an_asyncio_hotspot_spec(self):
        spec = default_xval_spec()
        with pytest.raises(ConfigError, match="hotspot"):
            cross_validate(replace(spec, backend="sim"))
        zipf = replace(spec.txn_workload, distribution="zipfian", distribution_kwargs={})
        with pytest.raises(ConfigError, match="hotspot"):
            cross_validate(replace(spec, txn_workload=zipf))

    def test_cross_validate_needs_whole_runs_on_both_sides(self):
        # asyncio runs have no warmup window, so the sim side may not have one
        with pytest.raises(ConfigError, match="warmup_fraction"):
            cross_validate(replace(default_xval_spec(), warmup_fraction=0.2))

    def test_default_spec_is_wan_and_overridable(self):
        spec = default_xval_spec()
        assert len(spec.platform.topology_factory().datacenters) == 2
        assert spec.localhost.time_scale >= 0.2  # WAN delays must dwarf loop jitter
        assert default_xval_spec(txns=7).ops == 7
        assert default_xval_spec(commit_protocol="3pc").commit_protocol == "3pc"

    def test_cross_validate_small_sweep(self):
        # A tiny two-level sweep end to end: both backends run, the report
        # carries one check per level. (Verdicts may legitimately vary with
        # wall-clock jitter at this size; the structure may not.)
        report = cross_validate(
            spec=_smoke_spec(n_dcs=2, ops=6), hot_fractions=(0.0, 0.9)
        )
        assert len(report.checks) == 2
        assert [c.hot_fraction for c in report.checks] == [0.0, 0.9]
        for check in report.checks:
            assert not check.aio_timed_out
