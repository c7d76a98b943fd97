"""Each experiment verb's one operating point, written once.

``VERBS[verb](ops, seed)`` is the result ``repro <verb> [--ops OPS] --seed
SEED`` prints (``ops`` ``None`` is the default scale): the CLI prints it and
``benchmarks/test_paper_shapes.py`` gates it. Only the two E1 verbs pass
arguments of their own. The CLI imports this module when a verb runs, so
``import repro.cli`` loads no eval module.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.experiments.bismar_eval import run_bismar_eval, run_efficiency_samples
from repro.experiments.cost_eval import run_cost_eval
from repro.experiments.harmony_eval import run_harmony_eval
from repro.experiments.model_eval import run_behavior_eval, run_fig1_validation
from repro.experiments.paper import ExperimentResult
from repro.experiments.platforms import ec2_harmony_platform, grid5000_harmony_platform
from repro.workload.workloads import heavy_read_update

__all__ = ["VERBS"]

VERBS: Dict[str, Callable[[Optional[int], int], ExperimentResult]] = {
    "e1-g5k": lambda ops, seed: run_harmony_eval(
        grid5000_harmony_platform(), (0.2, 0.4), None, ops, seed
    ),
    # A 200-key keyspace gives EC2's short propagation windows the per-key
    # pressure the paper's 5M-op runs had.
    "e1-ec2": lambda ops, seed: run_harmony_eval(
        ec2_harmony_platform(), (0.4, 0.6), heavy_read_update(record_count=200),
        ops, seed,
    ),
    "e2-cost": run_cost_eval,
    "e3-efficiency": run_efficiency_samples,
    "e4-bismar": run_bismar_eval,
    # E5 replays a fixed trace: its verb takes no --ops, so ops is None.
    "e5-behavior": lambda ops, seed: run_behavior_eval(seed),
    "fig1": run_fig1_validation,
}
