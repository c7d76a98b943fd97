"""The consistency-policy protocol.

A *policy* decides, per operation, which consistency level to use. It is the
interface every contribution of the paper plugs into:

- static policies (eventual ONE, QUORUM, strong ALL) -- the baselines,
  built by name with :func:`~repro.experiments.runner.named_policy_factory`;
- **Harmony** -- adapts the read level to keep estimated staleness under the
  application's tolerance (:mod:`repro.harmony`);
- **Bismar** -- picks the level with the best consistency-cost efficiency
  (:mod:`repro.bismar`);
- the behavior-modeling manager -- switches between policies per detected
  application state (:mod:`repro.behavior`);
- related-work baselines (:mod:`repro.baselines`).

Clients call :meth:`ConsistencyPolicy.read_level` / ``write_level`` before
each operation, passing the simulated time so adaptive policies can refresh
themselves lazily (no background thread needed inside the simulation).
Harmony and Bismar share that refresh loop, :class:`AdaptivePolicy`; each
supplies only its ``_decide`` step.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, List, Protocol, runtime_checkable

from repro.cluster.consistency import ConsistencyLevel, LevelSpec
from repro.common.errors import ConfigError

__all__ = ["ConsistencyPolicy", "StaticPolicy", "AdaptivePolicy"]

#: The adaptive engines tune the read side; writes run at ONE, as in the
#: Harmony/Cassandra deployment.
WRITE_LEVEL = 1


@runtime_checkable
class ConsistencyPolicy(Protocol):
    """Anything that can pick per-operation consistency levels."""

    def read_level(self, now: float) -> LevelSpec:
        """Consistency level for a read issued at simulated time ``now``."""
        ...

    def write_level(self, now: float) -> LevelSpec:
        """Consistency level for a write issued at simulated time ``now``."""
        ...

    @property
    def name(self) -> str:
        """Short label for reports (e.g. ``"harmony(0.05)"``)."""
        ...


class StaticPolicy:
    """A fixed (read, write) level pair -- the paper's static baselines."""

    def __init__(
        self,
        read: LevelSpec,
        write: LevelSpec | None = None,
        name: str | None = None,
    ):
        self._read = read
        self._write = write if write is not None else read
        self._name = name or f"static({read}/{self._write})"

    def read_level(self, now: float) -> LevelSpec:
        return self._read

    def write_level(self, now: float) -> LevelSpec:
        return self._write

    @property
    def name(self) -> str:
        return self._name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StaticPolicy(read={self._read}, write={self._write})"


class AdaptivePolicy:
    """The adaptation cycle both adaptive engines run (paper §III-A).

    ``read_level(now)`` re-decides at most once per ``update_interval``
    simulated seconds: the subclass's ``_decide(now)`` reads the monitor and
    returns a decision record (``t``, ``read_level``, ...), which is kept in
    ``decisions`` and sets the current level. Writes run at
    :data:`WRITE_LEVEL`. A subclass that has an ``on_decision`` attribute gets
    it called as ``fn(policy, decision)`` after each decision is recorded.
    """

    def __init__(self, monitor, rf: int, update_interval: float, deployment):
        if rf < 1:
            raise ConfigError(f"rf must be >= 1, got {rf}")
        if update_interval <= 0:
            raise ConfigError(f"update_interval must be positive, got {update_interval}")
        self.monitor = monitor
        self.rf = int(rf)
        self.update_interval = float(update_interval)
        #: when set, forecasts use the DC-aware model (snitch-ordered reads
        #: correlate replica lags; see repro.stale.dcmodel).
        self.deployment = deployment
        self._current = 1
        self._last_update = -float("inf")
        self.decisions: List[Any] = []

    def _decide(self, now: float) -> Any:
        raise NotImplementedError

    def read_level(self, now: float) -> LevelSpec:
        """Current adaptive read level (re-deciding if due)."""
        if now - self._last_update >= self.update_interval:
            self._last_update = now
            decision = self._decide(now)
            self._current = decision.read_level
            self.decisions.append(decision)
            hook = getattr(self, "on_decision", None)
            if hook is not None:
                hook(self, decision)
        return self._current

    def write_level(self, now: float) -> LevelSpec:
        return WRITE_LEVEL

    def level_time_fractions(self) -> dict:
        """Fraction of decisions spent at each read level (post-run report)."""
        counts = Counter(d.read_level for d in self.decisions)
        return {lvl: c / len(self.decisions) for lvl, c in sorted(counts.items())}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self.name}, rf={self.rf}, "
            f"current={self._current}, decisions={len(self.decisions)})"
        )
