"""YCSB-compatible workload generation.

The paper drives Cassandra with the Yahoo! Cloud Serving Benchmark; this
package rebuilds the parts the evaluation needs:

- :mod:`repro.workload.distributions` -- YCSB's key choosers (uniform,
  zipfian with Gray's algorithm and the 0.99 constant, scrambled zipfian,
  latest, hotspot);
- :mod:`repro.workload.workloads` -- workload mixes: the standard core
  workloads A-F plus the paper's "heavy read-update" mix;
- :mod:`repro.workload.client` -- closed-loop and open-loop clients plus the
  :class:`~repro.workload.client.WorkloadRunner` that deploys clients
  against a store and collects throughput/latency/staleness;
- :mod:`repro.workload.cohort` -- the cohort-mode engine: millions of
  clients per (DC, mix) pooled into one vectorized generator;
- :mod:`repro.workload.traces` -- operation trace recording, replay, and
  synthetic multi-phase application traces for the behavior-modeling
  pipeline.
"""

from repro.workload.distributions import (
    KeyChooser,
    UniformChooser,
    ZipfianChooser,
    ScrambledZipfianChooser,
    LatestChooser,
    HotSpotChooser,
    make_chooser,
)
from repro.workload.workloads import (
    WorkloadSpec,
    WORKLOADS,
    heavy_read_update,
    TxnWorkloadSpec,
    TXN_WORKLOADS,
    bank_transfer_mix,
    read_modify_write_mix,
    order_checkout_mix,
)
from repro.workload.client import ClosedLoopClient, OpenLoopSource, WorkloadRunner, RunReport
from repro.workload.cohort import CohortPopulation
from repro.workload.traces import (
    TraceRecord,
    TraceRecorder,
    PhasedTraceGenerator,
)

__all__ = [
    "KeyChooser",
    "UniformChooser",
    "ZipfianChooser",
    "ScrambledZipfianChooser",
    "LatestChooser",
    "HotSpotChooser",
    "make_chooser",
    "WorkloadSpec",
    "WORKLOADS",
    "heavy_read_update",
    "TxnWorkloadSpec",
    "TXN_WORKLOADS",
    "bank_transfer_mix",
    "read_modify_write_mix",
    "order_checkout_mix",
    "ClosedLoopClient",
    "OpenLoopSource",
    "WorkloadRunner",
    "RunReport",
    "CohortPopulation",
    "TraceRecord",
    "TraceRecorder",
    "PhasedTraceGenerator",
]
