"""Per-op draws stay block-served.

Every uniform a store operation needs -- op type, key, coordinator, read
repair, the store's own coordinator pick -- comes from a
:class:`~repro.common.rng.BlockUniforms` at list-pop cost. A numpy scalar
call such as ``rng.integers(0, n)`` or ``rng.random()`` on one of these
paths costs 0.7--2.7 us per op, and a direct draw from a block-served
stream also breaks its draw order. The scan below fails on any call on a
generator (a name ending in ``rng``, or a source's ``generator``) in the
per-op modules outside :data:`ALLOWED`; a draw there goes through the
source's ``uniforms``.
"""

import ast
import re
from pathlib import Path

import numpy as np

import repro
from repro.common.rng import BlockUniforms
from repro.cluster.store import draw_coordinator
from repro.workload.client import ClosedLoopClient, OpenLoopSource
from repro.workload.cohort import CohortPopulation
from repro.workload.workloads import WORKLOADS

SRC = Path(repro.__file__).resolve().parent
PER_OP = [
    "workload/client.py",
    "workload/cohort.py",
    "workload/distributions.py",
    "cluster/coordinator.py",
    "cluster/store.py",
    "txn/runner.py",
]
DIRECT = re.compile(r"(\w*rng|\bgenerator)\.(\w+)\(")
#: (file, enclosing function, generator method) of every allowed direct draw
ALLOWED = {
    # the whole Poisson schedule, one batched call before any op runs
    ("workload/client.py", "OpenLoopSource.start", "exponential"),
    # the stream handed back: a block of rate-free unit gaps per refill
    ("workload/cohort.py", "CohortPopulation._next_gap", "standard_exponential"),
    # YCSB's exponential generator draws on the handed-back stream
    ("workload/distributions.py", "ExponentialChooser.next_index", "exponential"),
}


def _functions(tree):
    """``(first line, last line, qualified name)`` of every def in ``tree``."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    out.append((child.lineno, child.end_lineno, name))
                visit(child, f"{name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _direct_draws():
    for rel in PER_OP:
        text = (SRC / rel).read_text()
        functions = _functions(ast.parse(text))
        for lineno, line in enumerate(text.splitlines(), start=1):
            for match in DIRECT.finditer(line.split("#")[0]):
                inside = [f for f in functions if f[0] <= lineno <= f[1]]
                owner = max(inside)[2] if inside else "<module>"
                yield rel, owner, match.group(2)


def test_no_numpy_draw_on_a_per_op_path():
    assert set(_direct_draws()) == ALLOWED


def test_the_scan_sees_a_scalar_draw():
    line = "        return coords[int(self.rng.integers(0, len(coords)))]"
    assert [m.group(2) for m in DIRECT.finditer(line)] == ["integers"]
    assert DIRECT.search("u = self.uniforms.generator.random()")
    assert not DIRECT.search("u = self.uniforms.random()")


def _store():
    return repro.single_dc_platform().build(seed=3)[1]


def test_drivers_share_one_block_with_their_chooser():
    store = _store()
    spec = WORKLOADS["A"].scaled(100)
    kw = dict(rng=np.random.default_rng(1), dc=0)
    drivers = [
        ClosedLoopClient(store, spec, repro.StaticPolicy(1, 1), ops=1, **kw),
        OpenLoopSource(store, spec, repro.StaticPolicy(1, 1), rate=1.0, ops=1, **kw),
        CohortPopulation(store, spec, repro.StaticPolicy(1, 1), members=1, ops=1, **kw),
    ]
    for driver in drivers:
        assert isinstance(driver.uniforms, BlockUniforms)
        assert driver.chooser._zipf.uniforms is driver.uniforms
    assert isinstance(store.uniforms, BlockUniforms)


def test_draw_coordinator_is_one_integers_draw_from_the_pool():
    store = _store()
    pool = store.coordinator_pool(0)
    uniforms = BlockUniforms(np.random.default_rng(8))
    twin = np.random.default_rng(8)
    for _ in range(200):
        want = pool[int(twin.integers(0, len(pool)))]
        assert draw_coordinator(store, 0, uniforms) == want
    assert draw_coordinator(store, None, uniforms) is None
    assert draw_coordinator(store, 7, uniforms) is None  # no such DC: empty pool
    assert uniforms.random() == twin.random()  # neither drew
