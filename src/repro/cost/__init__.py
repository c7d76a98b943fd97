"""The monetary-cost substrate (contribution B's foundation, §III-B).

The paper decomposes the bill of a cloud storage service into **three
parts: VM instances cost, storage cost and network cost**. This package
rebuilds that accounting against the simulator:

- :mod:`repro.cost.pricing` -- the price book (2012/13-era EC2 on-demand
  pricing by default, fully overridable);
- :mod:`repro.cost.billing` -- measured bills: meter a store over an
  interval and decompose the charge;
- :mod:`repro.cost.estimator` -- *expected* relative cost per consistency
  level from observable monitor state (what Bismar ranks levels with at
  runtime, before spending the money).
"""

from repro.cost.pricing import PriceBook, EC2_US_EAST_2013, FREE_PRIVATE_CLOUD
from repro.cost.billing import Bill, Biller
from repro.cost.estimator import CostEstimator, LevelCostEstimate

__all__ = [
    "PriceBook",
    "EC2_US_EAST_2013",
    "FREE_PRIVATE_CLOUD",
    "Bill",
    "Biller",
    "CostEstimator",
    "LevelCostEstimate",
]
