"""Reachability census: which ``src/repro`` functions and options nothing but tests use.

Runs every CLI verb at a small size and every example in this process,
under ``sys.setprofile``, and records each code object that is entered.
Each ``def`` in ``src/repro`` whose body was never entered is *unreached*.
A nested ``def`` is reported on its own only when the function that
encloses it was entered. Otherwise the enclosing function's entry covers
its lines. An interface stub has nothing to reach and is not counted: its
body, after the docstring, is ``...``, ``pass`` or ``raise
NotImplementedError``.

An *option* is a parameter with a default of a public function or
constructor, or a dataclass field with a default. Each call records the
options it passes a value that is not the default; the rest are *never
set*. The count is reported, not gated. Options are recorded on
Python 3.11+ only: older code objects have no ``co_qualname``.

A function that only an example enters -- unreached when the census
stops after the CLI verbs -- is *reached only by an example*. An
example shows a use; it is not one, so these are gated like the
unreached.

The gate: every unreached function and every function reached only by
an example must be listed in ``tools/reach_allow.txt`` under a one-line
reason, and every listed entry must name a function that exists. The
exit code is 1 when either rule fails, and 0 otherwise.

Usage::

    python tools/reach.py          # census, per-module table, gate
    python tools/reach.py --list   # also print unreached functions, unset options
                                   # and the functions only an example reaches

Sweeps run with ``--jobs 1`` so that every run stays in this process.
The asyncio verbs run on the wall clock, so a timeout branch can be
reached in one census and not in the next. Build the allow-list from
the union of several ``--list`` runs.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import dis
import inspect
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


@dataclass(frozen=True)
class Option:
    """One parameter with a default; ``owner`` is the class for a constructor."""

    module: str
    owner: str
    param: str

    @property
    def entry(self) -> str:
        return f"{self.module}:{self.owner}({self.param})"


def is_public(qualname: str) -> bool:
    parts = qualname.split(".")
    return all(part == "__init__" or not part.startswith(("_", "<")) for part in parts)


def owner_of(qualname: str) -> str:
    """A constructor's options belong to its class."""
    return qualname[: -len(".__init__")] if qualname.endswith(".__init__") else qualname


def is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", "")) == "dataclass":
            return True
    return False


def field_has_default(stmt: ast.AnnAssign) -> bool:
    if stmt.value is None or ast.unparse(stmt.annotation).startswith("ClassVar"):
        return False
    call = stmt.value
    if not (isinstance(call, ast.Call) and getattr(call.func, "id", "") == "field"):
        return True
    kw = {k.arg: k.value for k in call.keywords}
    init = kw.get("init")
    if isinstance(init, ast.Constant) and init.value is False:
        return False
    return "default" in kw or "default_factory" in kw


def options(source: str, module: str) -> List[Option]:
    """Every public option in ``source``: parameter and dataclass field defaults."""
    out: List[Option] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                owner = prefix + child.name
                if is_dataclass(child):
                    out.extend(
                        Option(module, owner, stmt.target.id) for stmt in child.body
                        if isinstance(stmt, ast.AnnAssign) and field_has_default(stmt)
                    )
                visit(child, owner + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if is_stub(child):
                    continue
                args = child.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                names = [a.arg for a in positional[first:]]
                kwonly = zip(args.kwonlyargs, args.kw_defaults)
                names += [a.arg for a, default in kwonly if default is not None]
                owner = owner_of(prefix + child.name)
                out.extend(Option(module, owner, name) for name in names)
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return [o for o in out if is_public(o.owner) and is_public(module)]


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


def reached_only_after(
    funcs: Iterable[Func], before: Set[Tuple[int, str]], entered: Set[Tuple[int, str]]
) -> List[Func]:
    """The functions unreached at the ``before`` snapshot that ``entered`` reaches.

    Both sets are as in :func:`unreached`; ``entered`` includes ``before``.
    """
    funcs = list(funcs)
    still = {f.qualname for f in unreached(funcs, entered)}
    return [f for f in unreached(funcs, before) if f.qualname not in still]


def gate(
    missed: Iterable[Func], example_only: Iterable[Func], allow: Dict[str, str],
    known: Set[str],
) -> List[str]:
    """One line per failure of the gate.

    A function unreached, or reached only by an example, fails unless
    ``allow`` lists it; an ``allow`` entry fails unless it is in ``known``.
    """
    out = [
        f"unreached and not allowed: {f.entry}"
        for f in missed if f.entry not in allow
    ]
    out += [
        f"reached only by an example and not allowed: {f.entry}"
        for f in example_only if f.entry not in allow
    ]
    out += [
        f"allow-list entry names no function: {entry}"
        for entry in sorted(set(allow) - known)
    ]
    return out


NO_OPTIONS: Tuple[int, list] = (-1, [])
RESUMING = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR


def unwrap(obj: object, code: object) -> object:
    """The function whose code is ``code``, under a static/class method or a cache."""
    for _ in range(3):
        if getattr(obj, "__code__", None) is code:
            return obj
        obj = getattr(obj, "__func__", None) or getattr(obj, "__wrapped__", None)
    return None


class Recorder:
    """What a run enters, and which options it sets to a non-default value.

    ``codes`` maps every code object entered to its options not yet seen
    set: ``(offset, [(param, default, entry), ...])``. Each code object is
    looked up once, at its first entry; before Python 3.11 a function's
    options are not recorded. A generator's or coroutine's
    options are read only at its first resume, at ``offset``, before its
    body can rebind them; -1 reads them at every entry.
    """

    def __init__(self, root: str = "repro"):
        self.root = root
        self.codes: Dict[object, Tuple[int, list]] = {}
        self.changed: Set[str] = set()

    def profile(self, frame, event, arg):
        if event != "call":
            return
        codes = self.codes
        spec = codes.get(frame.f_code)
        if spec is None:
            spec = codes[frame.f_code] = self.lookup(frame)
        todo = spec[1]
        if todo and (spec[0] < 0 or spec[0] == frame.f_lasti):
            values = frame.f_locals
            for item in list(todo):
                name, default, entry = item
                value = values.get(name, default)
                # a dataclass __init__ takes an omitted factory field as this
                if value is default or value is dataclasses._HAS_DEFAULT_FACTORY:
                    continue
                try:
                    same = bool(value == default)
                except Exception:  # e.g. an array, whose == is elementwise
                    same = False
                if not same:
                    self.changed.add(entry)
                    todo.remove(item)

    def in_scope(self, module: str) -> bool:
        return module == self.root or module.startswith(self.root + ".")

    def lookup(self, frame) -> Tuple[int, list]:
        code = frame.f_code
        if code.co_filename == "<string>" and code.co_name == "__init__":
            return self.dataclass_init(frame)
        module = frame.f_globals.get("__name__", "")
        qualname = getattr(code, "co_qualname", None)  # Python 3.11+
        if qualname is None or not (self.in_scope(module) and is_public(qualname)):
            return NO_OPTIONS
        parts = qualname.split(".")
        obj = frame.f_globals.get(parts[0])
        for part in parts[1:]:
            obj = vars(obj).get(part) if hasattr(obj, "__dict__") else None
        fn = unwrap(obj, code)
        if fn is None:
            return NO_OPTIONS
        entry = f"{module}:{owner_of(qualname)}(%s)"
        n = code.co_argcount
        defaults = fn.__defaults__ or ()
        todo = [
            (name, default, entry % name)
            for name, default in zip(code.co_varnames[n - len(defaults):n], defaults)
        ]
        kwdefaults = fn.__kwdefaults__ or {}
        todo += [(name, default, entry % name) for name, default in kwdefaults.items()]
        if not todo:
            return NO_OPTIONS
        offset = -1
        if code.co_flags & RESUMING:
            ops = dis.get_instructions(code)
            offset = next(i.offset for i in ops if i.opname == "RESUME")
        return offset, todo

    def dataclass_init(self, frame) -> Tuple[int, list]:
        """A dataclass's generated ``__init__``: one option per field with a default."""
        code = frame.f_code
        mro = type(frame.f_locals[code.co_varnames[0]]).__mro__
        cls = next((k for k in mro if unwrap(vars(k).get("__init__"), code)), None)
        if not (dataclasses.is_dataclass(cls) and self.in_scope(cls.__module__)):
            return NO_OPTIONS
        todo = []
        for f in dataclasses.fields(cls):
            factory = f.default_factory
            if not f.init or f.default is factory is dataclasses.MISSING:
                continue
            # the field is the option of the class that declares it
            owner = next(
                k for k in cls.__mro__ if f.name in vars(k).get("__annotations__", {})
            )
            entry = f"{owner.__module__}:{owner.__qualname__}({f.name})"
            default = f.default if factory is dataclasses.MISSING else factory()
            todo.append((f.name, default, entry))
        return -1, todo


@contextlib.contextmanager
def record(root: str = "repro") -> Iterator[Recorder]:
    """Record every call, in this thread and in new ones."""
    recorder = Recorder(root)
    old = sys.getprofile()
    sys.setprofile(recorder.profile)
    threading.setprofile(recorder.profile)
    try:
        yield recorder
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
        ["elastic", "--ops", "2000", "--scenario", "elastic-rebalance-storm"],
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
    # Two sim sweeps fire the scripted faults at the scenarios' default ops:
    # partitions and heals, node crashes and recoveries with hint replay, and
    # crashed TMs and participants under each commit protocol. Sim runs are
    # deterministic, so the paths they enter are entered on every census.
    runs += [
        ["sweep", "--jobs", "1", "--scenario", "geo-partition-chaos",
         "--scenario", "node-failure-storm"],
        ["sweep", "--jobs", "1", "--scenario", "txn-crash-storm",
         "--grid", "commit_protocol=2pc,2pc-coop,3pc"],
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


def run_census(tmp: str) -> Tuple[Recorder, Set[object]]:
    """Run the census set; ``repro`` is imported under the recorder.

    Also returns the code objects entered before the first example ran.
    """
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
        by_verbs = set(seen.codes)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for path in examples:
                print("example", path.name, file=sys.stderr, flush=True)
                with contextlib.redirect_stdout(io.StringIO()):
                    runpy.run_path(str(path), run_name="__main__")
        finally:
            os.chdir(cwd)
    return seen, by_verbs


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--list", action="store_true",
        help="also print every unreached function, every option never set and "
        "every function only an example reaches",
    )
    args = parser.parse_args(argv)

    allow = load_allow()
    modules = index()
    known = {f.entry for _, funcs in modules.values() for f in funcs}
    with tempfile.TemporaryDirectory() as tmp:
        recorder, by_verbs = run_census(tmp)
    entered = entered_by_file(recorder.codes)
    entered_by_verbs = entered_by_file(by_verbs)
    unset = [
        o.entry for path in sorted(SRC.rglob("*.py"))
        for o in options(path.read_text(), module_name(path))
        if o.entry not in recorder.changed
    ]

    missed: List[Func] = []
    example_only: List[Func] = []
    print(f"\n{'module':44s} {'unreached lines':>15s}")
    for filename, (module, funcs) in modules.items():
        found = unreached(funcs, entered.get(filename, set()))
        if found:
            print(f"{module:44s} {sum(f.lines for f in found):15d}")
        missed += found
        example_only += reached_only_after(
            funcs, entered_by_verbs.get(filename, set()), entered.get(filename, set())
        )
    print(f"{'total':44s} {sum(f.lines for f in missed):15d}")
    if args.list:
        print()
        for entry in [f.entry for f in missed] + unset:
            print(entry)
        for f in example_only:
            print(f"reached only by an example: {f.entry}")

    failures = gate(missed, example_only, allow, known)
    for line in failures:
        print(line)
    print(f"{len(missed)} unreached functions, {len(allow)} allow-list entries")
    print(
        f"{len(example_only)} functions ({sum(f.lines for f in example_only)} lines) "
        "reached only by an example"
    )
    if sys.version_info >= (3, 11):
        print(f"{len(unset)} options never set to a non-default value")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
