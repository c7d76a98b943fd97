"""The runtime application-state classifier.

§III-C: "At runtime, the application state is identified by the application
classifier and accordingly, it chooses the consistency policy associated
with that state."

The classifier is nearest-centroid over the *offline* timeline's
standardization and centroids: live monitor windows are featurized exactly
like trace windows, scaled with the frozen training statistics, and mapped
to the nearest state centroid.
"""

from __future__ import annotations

from repro.behavior.clustering import KMeansResult
from repro.behavior.features import WindowFeatures
from repro.behavior.timeline import Timeline
from repro.monitor.collector import ClusterMonitor

__all__ = ["StateClassifier", "features_from_monitor"]


def features_from_monitor(monitor: ClusterMonitor, now: float) -> WindowFeatures:
    """Build the live feature vector from a cluster monitor.

    Mirrors :func:`repro.behavior.features.extract_features` semantics over
    the monitor's sliding window instead of a trace slice.
    """
    read_rate = monitor.read_rate.rate(now)
    write_rate = monitor.write_rate.rate(now)
    op_rate = read_rate + write_rate
    read_fraction = read_rate / op_rate if op_rate > 0 else 0.0

    write_shares = monitor.keys.write_shares()
    read_shares = monitor.keys.read_shares()
    if write_shares:
        s2 = sum(v * v for v in write_shares.values())
        k_eff = 1.0 / s2 if s2 > 0 else float(len(write_shares))
        skew = 1.0 - k_eff / max(len(write_shares), 1)
        hot_rate = max(write_shares.values()) * write_rate
    else:
        skew = 0.0
        hot_rate = 0.0
    rk, wk = set(read_shares), set(write_shares)
    union = rk | wk
    overlap = len(rk & wk) / len(union) if union else 0.0

    return WindowFeatures(
        t_start=now - monitor.window,
        t_end=now,
        op_rate=op_rate,
        read_fraction=read_fraction,
        write_rate=write_rate,
        key_skew=skew,
        hot_write_rate=hot_rate,
        rw_overlap=overlap,
    )


class StateClassifier:
    """Nearest-centroid state identification with the frozen training scaling."""

    def __init__(self, timeline: Timeline, clustering: KMeansResult):
        self.timeline = timeline
        self.clustering = clustering

    def classify_features(self, features: WindowFeatures) -> int:
        """State id for one raw feature vector."""
        scaled = self.timeline.standardize(features.vector())
        return int(self.clustering.predict(scaled[None, :])[0])

    def classify_monitor(self, monitor: ClusterMonitor, now: float) -> int:
        """State id for the monitor's current window."""
        return self.classify_features(features_from_monitor(monitor, now))
