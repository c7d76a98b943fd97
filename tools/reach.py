"""Reachability census: which ``src/repro`` functions nothing but tests enter.

Runs every CLI verb at a small size and every example in this process,
under ``sys.setprofile``, and records each code object that is entered.
Each ``def`` in ``src/repro`` whose body was never entered is *unreached*.
A nested ``def`` is reported on its own only when the function that
encloses it was entered. Otherwise the enclosing function's entry covers
its lines. An interface stub has nothing to reach and is not counted: its
body, after the docstring, is ``...``, ``pass`` or ``raise
NotImplementedError``.

The gate: every unreached function must be listed in
``tools/reach_allow.txt`` under a one-line reason, and every listed
entry must name a function that exists. The exit code is 1 when either
rule fails, and 0 otherwise.

Usage::

    python tools/reach.py          # census, per-module table, gate
    python tools/reach.py --list   # also print unreached functions as entries

Sweeps run with ``--jobs 1`` so that every run stays in this process.
The asyncio verbs run on the wall clock, so a timeout branch can be
reached in one census and not in the next. Build the allow-list from
the union of several ``--list`` runs.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ALLOW = ROOT / "tools" / "reach_allow.txt"

EXPERIMENTS = ("e1-g5k", "e1-ec2", "e2-cost", "e3-efficiency", "e4-bismar", "fig1")
ASYNCIO_SCENARIOS = ("txn-shootout", "txn-crash-storm", "txn-protocol-shootout")


@dataclass(frozen=True)
class Func:
    """One ``def`` statement: where its code object starts and what it spans."""

    module: str
    qualname: str
    name: str
    first: int  # co_firstlineno: the first decorator line, else the ``def``
    last: int
    parent: str  # qualname of the enclosing function, "" at class/module level

    @property
    def entry(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def is_stub(node: ast.AST) -> bool:
    body = node.body
    head = body[0] if body else None
    if isinstance(head, ast.Expr) and isinstance(head.value, ast.Constant):
        body = body[1:] or body  # a docstring alone is a stub too
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis or isinstance(stmt.value.value, str)
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def functions(source: str, module: str) -> List[Func]:
    """Every ``def`` in ``source`` but stubs, named by ``__qualname__`` rules."""
    out: List[Func] = []

    def visit(node: ast.AST, prefix: str, parent: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                if not is_stub(child):
                    last = child.end_lineno
                    out.append(Func(module, qualname, child.name, first, last, parent))
                visit(child, qualname + ".<locals>.", qualname)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", parent)
            else:
                visit(child, prefix, parent)

    visit(ast.parse(source), "", "")
    return out


def module_name(path: Path, src: Path = SRC) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def index(src: Path = SRC) -> Dict[str, Tuple[str, List[Func]]]:
    """``{filename: (module, functions)}`` for every module under ``src``."""
    out = {}
    for path in sorted(src.rglob("*.py")):
        module = module_name(path, src)
        out[os.path.realpath(path)] = (module, functions(path.read_text(), module))
    return out


def unreached(funcs: Iterable[Func], entered: Set[Tuple[int, str]]) -> List[Func]:
    """The functions never entered whose enclosing function was entered.

    ``entered`` holds ``(co_firstlineno, co_name)`` for one module. The
    spans of the result never overlap, so their line counts add up.
    """
    funcs = list(funcs)
    missed = {f.qualname for f in funcs if (f.first, f.name) not in entered}
    return [f for f in funcs if f.qualname in missed and f.parent not in missed]


@contextlib.contextmanager
def record() -> Iterator[Set[object]]:
    """Collect every code object entered, in this thread and in new ones."""
    seen: Set[object] = set()
    add = seen.add

    def profile(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    old = sys.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        yield seen
    finally:
        sys.setprofile(old)
        threading.setprofile(None)


def entered_by_file(codes: Iterable[object]) -> Dict[str, Set[Tuple[int, str]]]:
    out: Dict[str, Set[Tuple[int, str]]] = {}
    for code in codes:
        key = os.path.realpath(code.co_filename)
        out.setdefault(key, set()).add((code.co_firstlineno, code.co_name))
    return out


def load_allow(path: Path = ALLOW) -> Dict[str, str]:
    """``{entry: reason}``. A ``#`` line starts a group and gives its reason."""
    allow: Dict[str, str] = {}
    reason = ""
    for n, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            reason = line.lstrip("#").strip()
            continue
        if not reason:
            raise ValueError(f"{path.name}:{n}: entry {line!r} has no reason above it")
        if ":" not in line:
            raise ValueError(f"{path.name}:{n}: {line!r} is not module:qualname")
        allow[line] = reason
    return allow


# -- the census set -----------------------------------------------------------


def cli_runs(tmp: str) -> List[List[str]]:
    """Every CLI verb, small; outputs land under ``tmp``."""

    def out(name: str) -> str:
        return os.path.join(tmp, name)

    runs = [["list"], ["scenarios"], ["scenarios", "--json"], ["e5-behavior"]]
    runs += [[name, "--ops", "800"] for name in EXPERIMENTS]
    for protocol in ("2pc", "2pc-coop", "3pc"):
        runs.append(["txn", "--ops", "200", "--protocol", protocol])
    runs += [
        ["elastic", "--ops", "2000"],
        ["xval", "--txns", "12", "--clients", "4", "--levels", "0.0,0.9",
         "--timeout", "60", "--json"],
        ["sweep", "--jobs", "1", "--ops", "300", "--out", out("plain")],
        ["sweep", "--jobs", "1", "--ops", "300", "--obs", "--out", out("obs")],
        ["sweep", "--jobs", "1", "--ops", "300", "--client-mode", "cohort"],
        ["sweep", "--jobs", "1", "--ops", "300", "--scenario", "single-dc-ycsb-a",
         "--grid", "tolerance=0.2,0.4"],
        ["sweep", "--jobs", "1", "--ops", "300", "--obs", "--seed", "12",
         "--scenario", "single-dc-ycsb-a", "--out", out("obs-b")],
    ]
    # The crash storm's recoveries start at 2.0 s protocol time, about where
    # a 40-op run ends; 120 ops run past every scripted crash and recovery.
    runs += [
        ["sweep", "--jobs", "1", "--ops", "120" if name == "txn-crash-storm" else "40",
         "--backend", "asyncio", "--scenario", name, "--out", out(name)]
        for name in ASYNCIO_SCENARIOS
    ]
    obs, obs_b = out("obs/obs"), out("obs-b/obs")
    for flag in ([], ["--csv"], ["--validate"], ["--slo"]):
        runs.append(["report", obs, *flag])
    runs += [["diff", obs, obs_b], ["diff", obs, obs_b, "--json"]]
    return runs


def run_census(tmp: str) -> Set[object]:
    """Run the census set; return the code objects it entered."""
    sys.path.insert(0, str(SRC))
    examples = sorted((ROOT / "examples").glob("*.py"))
    with record() as seen:
        from repro.cli import main

        for argv in cli_runs(tmp):
            print("repro", *argv, file=sys.stderr, flush=True)
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:  # report --slo / xval exit 1 on a breach
                    code = 0 if exc.code == 1 else exc.code
            if code:
                raise RuntimeError(f"repro {' '.join(argv)} exited {code}")
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for path in examples:
                print("example", path.name, file=sys.stderr, flush=True)
                with contextlib.redirect_stdout(io.StringIO()):
                    runpy.run_path(str(path), run_name="__main__")
        finally:
            os.chdir(cwd)
    return seen


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--list", action="store_true",
        help="print every unreached function as an allow-list entry",
    )
    args = parser.parse_args(argv)

    allow = load_allow()
    modules = index()
    known = {f.entry for _, funcs in modules.values() for f in funcs}
    with tempfile.TemporaryDirectory() as tmp:
        entered = entered_by_file(run_census(tmp))

    missed: List[Func] = []
    print(f"\n{'module':44s} {'unreached lines':>15s}")
    for filename, (module, funcs) in modules.items():
        found = unreached(funcs, entered.get(filename, set()))
        if found:
            print(f"{module:44s} {sum(f.lines for f in found):15d}")
        missed += found
    print(f"{'total':44s} {sum(f.lines for f in missed):15d}")
    if args.list:
        print()
        for f in missed:
            print(f.entry)

    bad = [f.entry for f in missed if f.entry not in allow]
    stale = sorted(set(allow) - known)
    for entry in bad:
        print(f"unreached and not allowed: {entry}")
    for entry in stale:
        print(f"allow-list entry names no function: {entry}")
    print(f"{len(missed)} unreached functions, {len(allow)} allow-list entries")
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
