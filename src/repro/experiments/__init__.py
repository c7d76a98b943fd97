"""Experiment harness: platform presets and per-experiment reproductions.

One module per experiment family of the paper's §IV (the benchmark targets
in ``benchmarks/`` are thin wrappers around these):

- :mod:`repro.experiments.platforms` -- the two evaluation platforms as
  simulated presets (Amazon EC2 / Grid'5000 deployments);
- :mod:`repro.experiments.runner` -- policy factories and the run outcome
  type (the deploy-run-bill pipeline itself is :func:`repro.run`);
- :mod:`repro.experiments.harmony_eval` -- E1: performance/staleness of
  Harmony vs static eventual/strong (§IV-A);
- :mod:`repro.experiments.cost_eval` -- E2: consistency impact on monetary
  cost (§IV-B, first experiment set);
- :mod:`repro.experiments.bismar_eval` -- E3/E4: the efficiency metric
  samples and the Bismar evaluation (§IV-B, second set);
- :mod:`repro.experiments.model_eval` -- FIG1: staleness-model validation,
  and E5: the behavior-modeling evaluation (the paper lists it as future
  work; built here as the natural extension);
- :mod:`repro.experiments.scenarios` -- the declarative scenario registry
  (workload x topology x policy x failure-injection recipes);
- :mod:`repro.experiments.sweep` -- grid expansion and the multiprocess
  sweep runner behind ``repro sweep``.
"""

from repro.experiments.platforms import (
    Platform,
    single_dc_platform,
    ec2_harmony_platform,
    grid5000_harmony_platform,
    storm_txn_platform,
    ec2_cost_platform,
    grid5000_bismar_platform,
)
from repro.experiments.runner import (
    PolicyFactory,
    RunOutcome,
    static_factory,
    harmony_factory,
    bismar_factory,
    rationing_factory,
    rwratio_factory,
)

__all__ = [
    "Platform",
    "single_dc_platform",
    "ec2_harmony_platform",
    "grid5000_harmony_platform",
    "storm_txn_platform",
    "ec2_cost_platform",
    "grid5000_bismar_platform",
    "PolicyFactory",
    "RunOutcome",
    "static_factory",
    "harmony_factory",
    "bismar_factory",
    "rationing_factory",
    "rwratio_factory",
]
