"""The docs name only code that exists.

Every backticked span of ``README.md`` and ``docs/ARCHITECTURE.md`` that
looks like a code reference must resolve in this tree:

- a ``*.py`` path: its basename is a file somewhere under the repository;
- a dotted ``repro.…`` name: it imports, or is an attribute chain of a
  module that imports;
- an identifier starting with a capital letter (``RunSpec``,
  ``TxnRunner``): it is an attribute of some ``repro`` module, unless it
  is one of the few non-repro words the docs use on purpose.

A rename or deletion that leaves a stale mention fails here.
"""

import importlib
import pkgutil
import re
from functools import lru_cache
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "docs/ARCHITECTURE.md")
#: capitalised words the docs use that are not repro names
NOT_REPRO = {
    "Enum", "JSONEncoder", "JSONDecoder", "NaN", "None", "PYTHONHASHSEED",
    "CHANGED", "BENCHMARK",
}


def _spans():
    for doc in DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        for match in re.finditer(r"`([^`\n]+)`", text):
            yield doc, text.count("\n", 0, match.start()) + 1, match.group(1)


@lru_cache(maxsize=None)
def _repro_names():
    names = set(dir(repro))
    for mod in pkgutil.walk_packages(repro.__path__, "repro."):
        names.update(dir(importlib.import_module(mod.name)))
    return frozenset(names)


@lru_cache(maxsize=None)
def _basenames():
    return frozenset(p.name for p in ROOT.rglob("*.py"))


def _resolves(dotted):
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _stale(span):
    """Why ``span`` does not resolve (``None``: it does, or is not code)."""
    if re.fullmatch(r"[\w./-]+\.py", span):
        return None if Path(span).name in _basenames() else "no such file"
    if re.fullmatch(r"repro(\.\w+)+", span):
        return None if _resolves(span) else "does not import"
    if re.fullmatch(r"[A-Z]\w*", span) and span not in NOT_REPRO:
        return None if span in _repro_names() else "no repro module has it"
    return None


@pytest.mark.parametrize("doc", DOCS)
def test_every_backticked_name_resolves(doc):
    stale = [
        f"{d}:{line}: `{span}` ({why})"
        for d, line, span in _spans()
        if d == doc and (why := _stale(span)) is not None
    ]
    assert stale == []


@pytest.mark.parametrize(
    "span, stale",
    [
        ("facade.py", False),
        ("src/repro/runtime/nowhere.py", True),
        ("repro.runtime.xval.cross_validate", False),
        ("repro.facade.LocalhostRunOutcome", True),
        ("TxnRunner", False),
        ("AnyRunOutcome", True),
        ("None", False),
        ("run(until)", False),  # not a name: not checked
    ],
)
def test_the_checker_tells_stale_names_apart(span, stale):
    assert (_stale(span) is not None) is stale
