"""The reachability census's accounting, and its allow-list against the tree.

The census itself runs every CLI verb (``python tools/reach.py``, a CI
job); these checks need no verb run.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = sys.modules["reach"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

FIXTURE = '''\
def called():
    def inner_called():
        return 1

    def inner_missed():
        return 2

    return inner_called()


def missed():
    def inner():
        return 3

    return inner()


class Box:
    @staticmethod
    def made(x):
        return x

    def never(self):
        return 0


async def coro():
    return 4


class Base:
    def hook(self):
        """Subclasses override this."""
        raise NotImplementedError
'''


@pytest.fixture
def fixture_module(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    spec = importlib.util.spec_from_file_location("fixture", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return path, module


class TestAccounting:
    def test_spans_and_qualnames_match_the_code_objects(self, fixture_module):
        path, module = fixture_module
        funcs = {f.qualname: f for f in reach.functions(FIXTURE, "fixture")}
        assert set(funcs) == {
            "called", "called.<locals>.inner_called", "called.<locals>.inner_missed",
            "missed", "missed.<locals>.inner", "Box.made", "Box.never", "coro",
        }  # Base.hook is an interface stub: nothing to reach
        for obj in (module.called, module.missed, module.Box.made, module.coro):
            f = funcs[obj.__qualname__]
            assert f.first == obj.__code__.co_firstlineno  # decorator line
        assert (funcs["Box.made"].first, funcs["Box.made"].last) == (19, 21)
        assert funcs["missed.<locals>.inner"].parent == "missed"

    def test_unreached_reports_outermost_missed_defs(self, fixture_module):
        path, module = fixture_module
        with reach.record() as seen:
            module.called()
            module.Box.made(1)
        entered = reach.entered_by_file(seen.codes)[os.path.realpath(path)]
        found = reach.unreached(reach.functions(FIXTURE, "fixture"), entered)
        # missed's inner def is covered by missed's own entry, not listed
        assert [f.entry for f in found] == [
            "fixture:called.<locals>.inner_missed", "fixture:missed",
            "fixture:Box.never", "fixture:coro",
        ]
        assert [f.lines for f in found] == [2, 5, 2, 2]

    def test_reached_only_after_names_what_the_second_part_enters(
        self, fixture_module
    ):
        path, module = fixture_module
        with reach.record() as seen:
            module.called()
            before = set(seen.codes)  # the snapshot taken before the examples
            module.missed()
            module.Box.made(1)
        key = os.path.realpath(path)
        found = reach.reached_only_after(
            reach.functions(FIXTURE, "fixture"),
            reach.entered_by_file(before)[key],
            reach.entered_by_file(seen.codes)[key],
        )
        # called's inner_missed stays unreached, so it is not counted
        assert [f.entry for f in found] == ["fixture:missed", "fixture:Box.made"]

    def test_entry_without_a_reason_is_rejected(self, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text("repro.cli:main\n")
        with pytest.raises(ValueError, match="no reason"):
            reach.load_allow(path)
        path.write_text("# fault path\nrepro.cli:main\n")
        assert reach.load_allow(path) == {"repro.cli:main": "fault path"}

    def test_gate_holds_example_only_functions_to_the_allow_list(self):
        funcs = {f.qualname: f for f in reach.functions(FIXTURE, "fixture")}
        missed, example_only = [funcs["missed"]], [funcs["Box.made"]]
        known = {f.entry for f in funcs.values()}
        allow = {"fixture:missed": "fault path"}
        assert reach.gate(missed, example_only, allow, known) == [
            "reached only by an example and not allowed: fixture:Box.made"
        ]
        allow["fixture:Box.made"] = "shown by an example"
        assert reach.gate(missed, example_only, allow, known) == []
        allow["fixture:gone"] = "shown by an example"
        assert reach.gate([], [], allow, known) == [
            "allow-list entry names no function: fixture:gone"
        ]


OPTIONS_FIXTURE = '''\
from dataclasses import dataclass, field


def scale(x, factor=2, offset=0.0):
    return x * factor + offset


def countdown(n=3):
    while n:
        yield n
        n -= 1


@dataclass
class Config:
    name: str
    size: int = 10
    tags: list = field(default_factory=list)
    fixed: int = field(default=3, init=False)


class Box:
    def __init__(self, cap=5):
        self.cap = cap

    def _private(self, y=1):
        return y
'''


class TestOptions:
    def test_only_public_defaults_and_dataclass_fields_count(self):
        found = [o.entry for o in reach.options(OPTIONS_FIXTURE, "fixture")]
        assert found == [
            "fixture:scale(factor)", "fixture:scale(offset)", "fixture:countdown(n)",
            "fixture:Config(size)", "fixture:Config(tags)", "fixture:Box(cap)",
        ]

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="needs co_qualname")
    def test_only_the_unset_options_are_reported(self, tmp_path, monkeypatch):
        path = tmp_path / "fixture.py"
        path.write_text(OPTIONS_FIXTURE)
        with reach.record(root="fixture") as seen:
            spec = importlib.util.spec_from_file_location("fixture", path)
            module = importlib.util.module_from_spec(spec)
            monkeypatch.setitem(sys.modules, "fixture", module)
            spec.loader.exec_module(module)
            module.scale(1, factor=2)  # the default, passed by name
            module.scale(1, offset=1.5)
            list(module.countdown())  # rebinding n in the body sets nothing
            module.Config("a", tags=["x"])
            module.Config("b", size=10)
            module.Box(cap=6)
            module.Box(1)._private(2)
        assert seen.changed == {
            "fixture:scale(offset)", "fixture:Config(tags)", "fixture:Box(cap)",
        }
        unset = [
            o.entry for o in reach.options(OPTIONS_FIXTURE, "fixture")
            if o.entry not in seen.changed
        ]
        assert unset == [
            "fixture:scale(factor)", "fixture:countdown(n)", "fixture:Config(size)",
        ]


def test_every_allow_list_entry_names_a_function():
    known = {f.entry for _, funcs in reach.index().values() for f in funcs}
    allow = reach.load_allow()
    assert allow
    assert sorted(set(allow) - known) == []
