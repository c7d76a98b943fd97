"""Run observability: samples, structured events, traces and timelines.

Harmony's loop is *observe -> estimate -> adapt*; this package makes every
run inspectable the same way: an :class:`~repro.obs.events.ObsEvent`
records a structured fault (crash, recovery, partition, heal) on the
store's ``on_fault`` channel, and a :class:`~repro.obs.trace.Tracer` builds
spans from the existing listener surfaces. The
:class:`~repro.obs.recorder.RunObserver` wires both to one deployment,
snapshots the cluster state on the simulated clock (its own sample tick,
with txn verdict and scale counts it folds from its hooks) and writes two
schema-versioned artifacts per run:

- ``timeline.jsonl`` -- header + samples + events + policy "explain"
  records + streaming-oracle ``anomaly`` records (rendered by
  ``repro report``);
- ``trace.json`` -- Chrome trace-event JSON, viewable in Perfetto.

On top of the passive recording sit the *active* pieces: streaming
:class:`~repro.obs.oracles.AnomalyOracles` judge invariants online
(stale bursts, 2PC in-doubt dwell, rebalance stalls, quorum loss,
monotonic reads), :mod:`repro.obs.slo` grades timelines against
declarative :class:`~repro.obs.slo.SLOSpec` objectives with error-budget
burn, and :mod:`repro.obs.diff` aligns two runs on sim-time for
metric/anomaly deltas (``repro diff``).

The whole package is **opt-in and zero-overhead when disabled**: no
harness constructs any observer object unless an
:class:`~repro.obs.recorder.ObsConfig` is passed, the hot-path hooks are
``None``-guarded attribute probes, and a store channel nobody observes
is an empty loop. The sample tick and tracer only *read* simulation state --
no RNG draws, no behavioural feedback -- so a run's results are
byte-identical with observability on or off.
"""

from repro.obs.events import EventBus, ObsEvent
from repro.obs.oracles import AnomalyOracles, OracleConfig
from repro.obs.recorder import ObsConfig, RunObserver
from repro.obs.slo import SLOSpec
from repro.obs.trace import Tracer

__all__ = [
    "AnomalyOracles",
    "EventBus",
    "ObsConfig",
    "ObsEvent",
    "OracleConfig",
    "RunObserver",
    "SLOSpec",
    "Tracer",
]
