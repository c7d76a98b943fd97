"""Stale-read probability estimation (the model behind Figure 1).

- :mod:`repro.stale.model` -- the closed-form estimator: Poisson read/write
  arrivals, per-replica residual propagation windows, quorum-overlap
  correction, and key-skew aggregation;
- :mod:`repro.stale.montecarlo` -- an independent Monte-Carlo estimator of
  the same quantity, used to validate the closed form (and by the FIG1
  benchmark, against the simulator's ground-truth oracle as well);
- :mod:`repro.stale.dcmodel` -- the datacenter-aware model for
  snitch-ordered reads, and :func:`forecast_stale`, the one forecast both
  adaptive engines decide from.
"""

from repro.stale.model import (
    StaleModelParams,
    per_key_stale_probability,
    per_key_stale_probability_strict,
    closed_form_exponential,
    system_stale_rate,
    params_from_snapshot,
)
from repro.stale.dcmodel import (
    DeploymentInfo, forecast_stale, per_key_stale_dc, system_stale_rate_dc,
)
from repro.stale.montecarlo import MonteCarloStaleEstimator

__all__ = [
    "StaleModelParams",
    "per_key_stale_probability",
    "per_key_stale_probability_strict",
    "closed_form_exponential",
    "system_stale_rate",
    "params_from_snapshot",
    "MonteCarloStaleEstimator",
    "DeploymentInfo",
    "forecast_stale",
    "per_key_stale_dc",
    "system_stale_rate_dc",
]
