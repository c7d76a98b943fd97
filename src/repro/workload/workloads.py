"""Workload mixes: YCSB core workloads plus the paper's heavy read-update.

A :class:`WorkloadSpec` is a declarative description: operation proportions,
record count/size, key distribution. The client layer samples operations
from it. Key strings follow YCSB (``user<index>``).

The paper's evaluation uses a *"heavy read-update"* workload -- YCSB
workload A's 50/50 read/update mix at maximum offered load -- with
2-24 GB data sets; :func:`heavy_read_update` builds it at any scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigError
from repro.cluster.store import DEFAULT_VALUE_SIZE
from repro.workload.distributions import KeyChooser, make_chooser

__all__ = [
    "KEY_PREFIX",
    "KeyRange",
    "WorkloadSpec",
    "WORKLOADS",
    "heavy_read_update",
    "flash_crowd",
    "read_mostly_latest",
    "TxnWorkloadSpec",
    "TXN_WORKLOADS",
    "bank_transfer_mix",
    "read_modify_write_mix",
    "order_checkout_mix",
]

#: YCSB key naming: item ``i`` is key ``f"{KEY_PREFIX}{i}"``.
KEY_PREFIX = "user"


class KeyRange(Mapping[str, int]):
    """The YCSB keyspace ``user0 ... user{n-1}`` as a ``key -> position`` map.

    :meth:`get` parses the key's canonical decimal suffix, so the range
    holds no key strings, and a miss returns ``default`` without raising.
    """

    __slots__ = ("n", "_width")

    def __init__(self, n: int) -> None:
        self.n, self._width = n, len(str(n))  # no position has more digits

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[str]:
        return map(f"{KEY_PREFIX}{{}}".format, range(self.n))

    def get(self, key: str, default: Optional[int] = None) -> Optional[int]:
        digits = key[len(KEY_PREFIX) :]
        if key.startswith(KEY_PREFIX) and digits.isascii() and digits.isdigit():
            if len(digits) <= self._width and (digits[0] != "0" or digits == "0"):
                position = int(digits)
                return position if position < self.n else default
        return default

    def __getitem__(self, key: str) -> int:
        if (position := self.get(key)) is None:
            raise KeyError(key)
        return position

    def __repr__(self) -> str:
        return f"KeyRange({self.n})"


@dataclass
class WorkloadSpec:
    """Declarative workload description (a YCSB properties file, as code).

    Attributes
    ----------
    name:
        Report label.
    read_proportion / update_proportion / insert_proportion /
    read_modify_write_proportion:
        Operation mix; must sum to 1.
    record_count:
        Initial key population (the load phase inserts these).
    distribution:
        Key-chooser name (``uniform``/``zipfian``/``latest``/``hotspot``/...).
    distribution_kwargs:
        Extra chooser parameters (e.g. hotspot fractions).
    """

    name: str = "workload"
    read_proportion: float = 0.5
    update_proportion: float = 0.5
    insert_proportion: float = 0.0
    read_modify_write_proportion: float = 0.0
    record_count: int = 1000
    distribution: str = "zipfian"
    distribution_kwargs: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        total = (
            self.read_proportion
            + self.update_proportion
            + self.insert_proportion
            + self.read_modify_write_proportion
        )
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"operation proportions sum to {total}, expected 1.0")
        if self.record_count < 1:
            raise ConfigError(f"record_count must be >= 1, got {self.record_count}")

    # -- sampling ---------------------------------------------------------------

    def make_chooser(self, rng: "np.random.Generator | int | None" = None) -> KeyChooser:
        """Instantiate this spec's key chooser."""
        return make_chooser(
            self.distribution, self.record_count, rng=rng, **self.distribution_kwargs
        )

    def key_of(self, index: int) -> str:
        """YCSB key naming (:data:`KEY_PREFIX`, as :class:`KeyRange` parses it)."""
        return f"{KEY_PREFIX}{index}"

    def data_size_bytes(self) -> int:
        """Total logical data size (records x the store's row size), for billing."""
        return self.record_count * DEFAULT_VALUE_SIZE

    def sample_op(self, rng: np.random.Generator) -> str:
        """Draw an operation type: ``read``/``update``/``insert``/``rmw``."""
        u = rng.random()
        if u < self.read_proportion:
            return "read"
        u -= self.read_proportion
        if u < self.update_proportion:
            return "update"
        u -= self.update_proportion
        if u < self.insert_proportion:
            return "insert"
        return "rmw"

    def scaled(self, record_count: int, name: Optional[str] = None) -> "WorkloadSpec":
        """Copy of this spec at a different population size."""
        return replace(
            self, record_count=record_count, name=name or f"{self.name}@{record_count}"
        )


def heavy_read_update(
    record_count: int = 2000, distribution: str = "zipfian"
) -> WorkloadSpec:
    """The paper's evaluation workload: YCSB-A-style 50/50 read/update.

    §IV runs "a heavy read-update workload" (50% reads, 50% updates, zipfian
    key skew) at 3M-10M operations over 14-24 GB. The simulator runs the
    same mix at a configurable scale; EXPERIMENTS.md records the scales used.
    """
    return WorkloadSpec(
        name="heavy-read-update",
        read_proportion=0.5,
        update_proportion=0.5,
        record_count=record_count,
        distribution=distribution,
    )


def flash_crowd(
    record_count: int = 1000, hot_set_fraction: float = 0.05
) -> WorkloadSpec:
    """A flash-crowd mix: nearly all traffic slams a tiny hot key set.

    Models the "everyone refreshes the same product page" regime -- a 70/30
    read/update mix where 95% of operations hit the first
    ``hot_set_fraction`` of keys. Contention on the hot set is what makes
    adaptive consistency interesting here: per-key write rates are far above
    what the global average suggests.
    """
    return WorkloadSpec(
        name="flash-crowd",
        read_proportion=0.7,
        update_proportion=0.3,
        record_count=record_count,
        distribution="hotspot",
        distribution_kwargs={
            "hot_set_fraction": hot_set_fraction,
            "hot_opn_fraction": 0.95,
        },
    )


def read_mostly_latest(record_count: int = 1000) -> WorkloadSpec:
    """A diurnal-style mix: read-mostly with inserts skewed to recent keys.

    YCSB-D's shape (95% reads, 5% inserts, ``latest`` distribution) -- the
    "users read what was just written" pattern of feeds and timelines; the
    diurnal scenario paces it to an off-peak offered load.
    """
    return replace(
        WORKLOADS["D"],
        name="read-mostly-latest",
        record_count=record_count,
    )


@dataclass
class TxnWorkloadSpec:
    """Declarative multi-key transaction mix.

    Every transaction touches ``n_keys`` *distinct* keys drawn from the
    spec's key distribution; ``read_slots`` / ``write_slots`` name which of
    those key positions are read and which are written (a slot may appear
    in both -- that is the read-modify-write shape whose commit-time
    validation makes stale reads abort).

    Attributes
    ----------
    name:
        Report label.
    n_keys:
        Distinct keys per transaction.
    read_slots / write_slots:
        Indices in ``range(n_keys)`` read (before commit) and written
        (buffered, atomically applied at commit).
    record_count / value_size / distribution / distribution_kwargs:
        Key population and skew, as in :class:`WorkloadSpec`.
    """

    name: str
    n_keys: int
    read_slots: Tuple[int, ...]
    write_slots: Tuple[int, ...]
    record_count: int = 1000
    value_size: int = DEFAULT_VALUE_SIZE
    distribution: str = "zipfian"
    distribution_kwargs: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_keys < 1:
            raise ConfigError(f"n_keys must be >= 1, got {self.n_keys}")
        for label, slots in (("read_slots", self.read_slots), ("write_slots", self.write_slots)):
            for s in slots:
                if not (0 <= s < self.n_keys):
                    raise ConfigError(f"{label} index {s} outside 0..{self.n_keys - 1}")
        if not self.read_slots and not self.write_slots:
            raise ConfigError("a transaction mix needs at least one read or write slot")
        if self.record_count < self.n_keys:
            raise ConfigError(
                f"record_count {self.record_count} < n_keys {self.n_keys}: "
                "transactions could never draw distinct keys"
            )
        if self.value_size <= 0:
            raise ConfigError(f"value_size must be > 0, got {self.value_size}")

    def make_chooser(self, rng: "np.random.Generator | int | None" = None) -> KeyChooser:
        """Instantiate this spec's key chooser."""
        return make_chooser(
            self.distribution, self.record_count, rng=rng, **self.distribution_kwargs
        )

    def key_of(self, index: int) -> str:
        """YCSB key naming (shared with the single-op specs)."""
        return f"{KEY_PREFIX}{index}"

    def data_size_bytes(self) -> int:
        """Total logical data size (records x value size), for billing."""
        return self.record_count * self.value_size

    def sample_keys(self, chooser: KeyChooser) -> Tuple[str, ...]:
        """Draw ``n_keys`` distinct keys from the skewed distribution.

        Rejection-samples the chooser (bounded), then falls back to a
        deterministic linear probe so a pathological hot-spot distribution
        can never stall a client. All randomness comes from the chooser --
        nothing else is consumed, which keeps client RNG streams stable.
        """
        indices: list = []
        for _ in range(8 * self.n_keys):
            if len(indices) == self.n_keys:
                break
            idx = chooser.next_index()
            if idx not in indices:
                indices.append(idx)
        probe = indices[-1] if indices else 0
        while len(indices) < self.n_keys:
            probe = (probe + 1) % self.record_count
            if probe not in indices:
                indices.append(probe)
        return tuple(self.key_of(i) for i in indices)

    def scaled(self, record_count: int) -> "TxnWorkloadSpec":
        """Copy of this spec at a different population size."""
        return replace(self, record_count=record_count, name=f"{self.name}@{record_count}")


def bank_transfer_mix(
    record_count: int = 1000, distribution: str = "zipfian"
) -> TxnWorkloadSpec:
    """Move money between two accounts: read both, write both.

    The canonical lost-update workload -- both balances are derived from
    the values read, so a stale read silently destroys a concurrent
    deposit unless commit-time validation (or a strong read level)
    intervenes.
    """
    return TxnWorkloadSpec(
        name="bank-transfer",
        n_keys=2,
        read_slots=(0, 1),
        write_slots=(0, 1),
        record_count=record_count,
        distribution=distribution,
    )


def read_modify_write_mix(record_count: int = 1000) -> TxnWorkloadSpec:
    """Single-key read-modify-write (YCSB-F, made atomic), zipfian keys."""
    return TxnWorkloadSpec(
        name="read-modify-write",
        n_keys=1,
        read_slots=(0,),
        write_slots=(0,),
        record_count=record_count,
    )


def order_checkout_mix(record_count: int = 1000) -> TxnWorkloadSpec:
    """Web-shop checkout: read catalog/cart/stock, write stock + order row.

    Reads fan out wider than writes (3 reads, 2 writes over 4 keys) and
    only the stock key is both read and written, so validation conflicts
    concentrate on inventory -- the contended resource of a real checkout.
    """
    return TxnWorkloadSpec(
        name="order-checkout",
        n_keys=4,
        read_slots=(0, 1, 2),
        write_slots=(2, 3),
        record_count=record_count,
        distribution="zipfian",
    )


#: The built-in transactional mixes, keyed by mix name.
TXN_WORKLOADS: Dict[str, TxnWorkloadSpec] = {
    "bank-transfer": bank_transfer_mix(),
    "read-modify-write": read_modify_write_mix(),
    "order-checkout": order_checkout_mix(),
}


def _core(name: str, **kw) -> WorkloadSpec:
    return WorkloadSpec(name=name, **kw)


#: The YCSB core workloads (scan-free approximations where YCSB scans:
#: workload E's scans are modelled as reads, which preserves the read/write
#: ratio the consistency study cares about).
WORKLOADS: Dict[str, WorkloadSpec] = {
    "A": _core("ycsb-a", read_proportion=0.5, update_proportion=0.5),
    "B": _core("ycsb-b", read_proportion=0.95, update_proportion=0.05),
    "C": _core("ycsb-c", read_proportion=1.0, update_proportion=0.0),
    "D": _core(
        "ycsb-d",
        read_proportion=0.95,
        update_proportion=0.0,
        insert_proportion=0.05,
        distribution="latest",
    ),
    "E": _core(
        "ycsb-e",
        read_proportion=0.95,
        update_proportion=0.0,
        insert_proportion=0.05,
    ),
    "F": _core(
        "ycsb-f",
        read_proportion=0.5,
        update_proportion=0.0,
        read_modify_write_proportion=0.5,
    ),
}
