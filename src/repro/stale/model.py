"""Closed-form stale-read probability.

The model, per Figure 1 of the paper
---------------------------------------

A write of a key arrives (Poisson, per-key rate ``lambda_w``). At level
``w`` it is acknowledged once ``w`` replicas applied it (time ``T`` = the
rank-``w`` apply delay); the remaining ``N - w`` replicas apply it after
their own delays. Replica *i*'s **residual window** is
``W_i = max(apply_i - T, 0)`` -- the time it still serves the old value
*after* the write is acknowledged.

A read (Poisson, rate ``lambda_r``) contacts ``r`` replicas chosen
uniformly without replacement and returns the newest version seen. By the
memorylessness of Poisson arrivals, the time since the last acknowledged
write is ``tau ~ Exp(lambda_w)``. The read is stale iff **every** contacted
replica still lags, i.e. contacted subset ``S`` satisfies
``min_{i in S} W_i > tau``.

Two structural facts sharpen this:

1. **Quorum overlap**: if ``r + w > N`` the contacted set always intersects
   the synchronous set, so ``P_stale = 0`` exactly.
2. **Synchronous avoidance**: otherwise the read is stale only if ``S``
   avoids the ``w`` synchronous replicas (probability
   ``C(N-w, r) / C(N, r)``, hypergeometric), and conditional on avoidance
   ``S`` is a uniform ``r``-subset of the ``N - w`` laggards.

With deterministic windows ``V_1 <= ... <= V_M`` (``M = N - w``, the
laggards' windows sorted ascending), the min over a uniform ``r``-subset has
``P(min = V_j) = C(M - j, r - 1) / C(M, r)``, so

    P_stale(r, w) = C(N-w, r)/C(N, r) *
                    sum_j [ C(M-j, r-1)/C(M, r) * (1 - exp(-lambda_w V_j)) ]

:func:`closed_form_exponential` gives the even simpler form when windows
are modelled Exp(theta): ``P = H * lambda_w*theta / (lambda_w*theta + r)``.

System-level staleness aggregates per-key staleness over the workload's key
profile: ``P_sys = sum_k read_share_k * P_stale(lambda_w * write_share_k)``
(:func:`system_stale_rate`) -- the skew correction that makes zipfian
workloads read much more stale data than uniform ones at equal aggregate
rates.

Known approximations (validated against Monte Carlo and the simulator):
reads are judged at replica serve time rather than read start (slightly
conservative), windows use mean delays rather than full distributions, and
only the most recent write can be missed (excellent when
``lambda_w * max(W) << 1``, still conservative above).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.cluster.consistency import quorum_intersects

__all__ = [
    "StaleModelParams",
    "per_key_stale_probability",
    "per_key_stale_probability_strict",
    "closed_form_exponential",
    "system_stale_rate",
    "params_from_snapshot",
]


def _check_levels(read_level: int, write_level: int, rf: int) -> None:
    if rf < 1:
        raise ConfigError(f"rf must be >= 1, got {rf}")
    if not (1 <= read_level <= rf):
        raise ConfigError(f"read_level {read_level} outside 1..{rf}")
    if not (1 <= write_level <= rf):
        raise ConfigError(f"write_level {write_level} outside 1..{rf}")


def per_key_stale_probability(
    write_rate: float,
    read_level: int,
    write_level: int,
    windows: Sequence[float],
) -> float:
    """Stale probability for one key written at Poisson rate ``write_rate``.

    Parameters
    ----------
    write_rate:
        Per-key write arrival rate (writes/sec).
    read_level / write_level:
        Replica counts ``r`` and ``w``.
    windows:
        Residual staleness windows per replica (``rf`` entries; the
        synchronous ranks contribute zeros). Order does not matter.
    """
    params = StaleModelParams(write_rate, windows, _ONE_KEY, strict=False)
    return _stale_sum(params, read_level, write_level)


def per_key_stale_probability_strict(
    write_rate: float,
    read_level: int,
    windows: Sequence[float],
) -> float:
    """Stale probability under the strict Figure-1 definition.

    Here the freshness bar rises at the write's **start** (``Xw``), not its
    acknowledgement, so every replica's window is its *full* apply delay
    (no commit-rank subtraction) and there is no synchronous-avoidance
    term: even the replicas that will form the write's quorum lag while the
    write is in flight. Same subset-minimum DP as the committed form:

        P = sum_j C(N-j, r-1)/C(N, r) * (1 - exp(-lambda_w W_j))

    over the apply delays ``W_1 <= ... <= W_N``. This is the definition the
    paper's Figure 1 draws and the conservative quantity its estimator
    reports ("X% of reads are estimated to be up-to-date").
    """
    return _stale_sum(StaleModelParams(write_rate, windows, _ONE_KEY), read_level, 1)


_ONE_KEY = ((1.0, 1.0, 1),)  # a single key taking all traffic


def _rank_terms(
    read_level: int, write_level: int, windows: Sequence[float], strict: bool
) -> Tuple[float, List[Tuple[float, float]]]:
    """Check the levels; ``(avoid, [(weight_j, V_j)])``, zero weights dropped.

    ``avoid`` is 1 in the strict form. Rate-free: one call serves every key.
    """
    rf, r, w = len(windows), read_level, write_level
    if strict and rf < 1:
        raise ConfigError("need at least one window")
    _check_levels(r, 1 if strict else w, rf)
    if strict:
        avoid, ordered = 1.0, sorted(windows)
    elif quorum_intersects(r, w, rf):  # every read meets a synchronous replica
        return 1.0, []
    else:  # laggard windows: drop the w smallest (the synchronous ranks)
        avoid, ordered = math.comb(rf - w, r) / math.comb(rf, r), sorted(windows)[w:]
    m = len(ordered)
    total_subsets = math.comb(m, r)
    terms = []
    for j, v in enumerate(ordered, start=1):  # v ascending; j is 1-based rank
        weight = math.comb(m - j, r - 1) / total_subsets
        if weight != 0.0:
            terms.append((weight, v))
    return avoid, terms


def _stale_sum(params: "StaleModelParams", read_level: int, write_level: int) -> float:
    """Unclamped ``sum_k read_share_k * mult_k * P_stale(lambda_w * write_share_k)``.

    The one body of both definitions: levels are checked at the first row
    with a positive read share, then each such row's rate.
    """
    expm1 = math.expm1
    terms = None
    acc = 0.0
    for read_share, write_share, mult in params.key_profile:
        if read_share <= 0.0:
            continue
        if terms is None:
            avoid, terms = _rank_terms(
                read_level, write_level, params.windows, params.strict
            )
        lam = params.write_rate * write_share
        if lam < 0:
            raise ConfigError(f"write_rate must be >= 0, got {lam}")
        if lam == 0.0:
            continue
        p = 0.0
        for weight, v in terms:
            p += weight * -expm1(-lam * v)
        acc += read_share * mult * (avoid * p)
    return acc


def closed_form_exponential(
    write_rate: float,
    read_level: int,
    write_level: int,
    rf: int,
    theta: float,
) -> float:
    """Stale probability with i.i.d. ``Exp(theta)``-distributed windows.

    ``P = C(N-w, r)/C(N, r) * (lambda * theta) / (lambda * theta + r)`` --
    the memoryless special case, handy for back-of-envelope level choice and
    as a regression anchor in tests.
    """
    _check_levels(read_level, write_level, rf)
    if theta < 0:
        raise ConfigError(f"theta must be >= 0, got {theta}")
    if write_rate <= 0.0 or theta == 0.0:
        return 0.0
    r, w = read_level, write_level
    if quorum_intersects(r, w, rf):
        return 0.0
    avoid = math.comb(rf - w, r) / math.comb(rf, r)
    lt = write_rate * theta
    return avoid * lt / (lt + r)


@dataclass
class StaleModelParams:
    """Everything the system-level estimator needs.

    Attributes
    ----------
    write_rate:
        Aggregate write arrival rate (writes/sec over all keys).
    windows:
        Residual windows per replica for the *current* write level.
    key_profile:
        ``[(read_share, write_share, multiplicity)]`` rows; ``[(1, 1, 1)]``
        means "a single key takes all traffic" and
        ``[(1/K, 1/K, K)]``-style rows encode a uniform keyspace.
    rf:
        Replication factor (defaults to ``len(windows)``).
    strict:
        Staleness definition: ``True`` = Figure-1 write-start bar (windows
        are full apply delays), ``False`` = committed bar (windows are
        post-acknowledgement residuals).
    """

    write_rate: float
    windows: Sequence[float]
    key_profile: Sequence[Tuple[float, float, int]]
    rf: Optional[int] = None
    strict: bool = True

    def __post_init__(self) -> None:
        if self.rf is None:
            self.rf = len(self.windows)
        if self.rf != len(self.windows):
            raise ConfigError(
                f"rf={self.rf} but {len(self.windows)} windows supplied"
            )


def system_stale_rate(
    params: StaleModelParams, read_level: int, write_level: int
) -> float:
    """Workload-wide stale-read probability at levels ``(r, w)``.

    The read-share-weighted average of per-key staleness over the key
    profile. Profiles not summing exactly to one (truncation) are used
    as-is: missing mass means unobserved cold keys, which contribute ~0.
    """
    return min(_stale_sum(params, read_level, write_level), 1.0)


def params_from_snapshot(
    snapshot,
    write_level: int,
    fallback_rf: int,
    fallback_window: float = 0.0,
    strict: bool = True,
) -> StaleModelParams:
    """Build model parameters from a :class:`~repro.monitor.collector.MonitorSnapshot`.

    Before any write has fully propagated the monitor has no ack profile;
    ``fallback_rf`` / ``fallback_window`` seed the model conservatively in
    that cold-start phase (Harmony then starts from whatever level the
    fallback implies and adapts as data arrives).

    ``strict`` selects the Figure-1 (write-start) definition, the paper's
    conservative choice; ``False`` selects the committed-bar definition.
    """
    rf = snapshot.replication_factor()
    if rf == 0:
        rf = fallback_rf
        windows = [fallback_window] * rf
    elif strict:
        windows = list(snapshot.ack_rank_means)
    else:
        windows = snapshot.propagation_windows(write_level)
    profile = snapshot.key_profile or [(1.0, 1.0, 1)]
    return StaleModelParams(
        write_rate=snapshot.write_rate,
        windows=windows,
        key_profile=profile,
        rf=rf,
        strict=strict,
    )
