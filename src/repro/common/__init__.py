"""Shared foundations for the ``repro`` library.

This package holds the small, dependency-free building blocks used by every
other subsystem:

- :mod:`repro.common.errors` -- the exception hierarchy;
- :mod:`repro.common.rng` -- deterministic, hierarchical random-stream
  management built on :class:`numpy.random.SeedSequence`;
- :mod:`repro.common.stats` -- online statistics (mean/variance, EWMA,
  histograms, sliding-window rate estimators) used by the monitoring module;
- :mod:`repro.common.tables` -- plain-text table rendering for experiment
  reports.
"""

from repro.common.errors import (
    ReproError,
    ConfigError,
    SimulationError,
    ConsistencyError,
    UnavailableError,
    TimeoutError_,
)
from repro.common.rng import RngFactory, spawn_rng
from repro.common.stats import (
    OnlineStats,
    Ewma,
    Histogram,
    RateEstimator,
)
from repro.common.tables import Table, format_float

__all__ = [
    "ReproError",
    "ConfigError",
    "SimulationError",
    "ConsistencyError",
    "UnavailableError",
    "TimeoutError_",
    "RngFactory",
    "spawn_rng",
    "OnlineStats",
    "Ewma",
    "Histogram",
    "RateEstimator",
    "Table",
    "format_float",
]
