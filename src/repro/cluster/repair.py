"""Anti-entropy repair: a periodic background reconciliation sweep.

Complements foreground read repair: every ``interval`` simulated seconds the
repair daemon samples keys that have been written, compares all replicas'
versions through the oracle-free path (reading each node's local state
directly, as a Merkle-tree comparison would reveal), and streams the newest
version to lagging replicas over the network (so the repair traffic is
billed like Cassandra's repair streaming is).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import spawn_rng

__all__ = ["AntiEntropyRepair"]


class AntiEntropyRepair:
    """Periodic replica reconciliation over a sample of written keys.

    Parameters
    ----------
    store:
        The :class:`~repro.cluster.store.ReplicatedStore` to repair.
    interval:
        Sweep period in simulated seconds.
    sample_fraction:
        Fraction of the written key population examined per sweep (1.0 =
        full repair like ``nodetool repair``; smaller = incremental repair).
    rng:
        Seed or generator for key sampling.
    """

    def __init__(
        self,
        store,
        interval: float = 60.0,
        sample_fraction: float = 0.1,
        rng: "np.random.Generator | int | None" = None,
    ):
        if interval <= 0:
            raise ConfigError(f"interval must be positive, got {interval}")
        if not (0.0 < sample_fraction <= 1.0):
            raise ConfigError(
                f"sample_fraction must be in (0, 1], got {sample_fraction}"
            )
        self.store = store
        self.interval = float(interval)
        self.sample_fraction = float(sample_fraction)
        self.rng = spawn_rng(rng)
        self.sweeps = 0
        self.keys_examined = 0
        self.repairs_streamed = 0
        self._stopped = False

    def start(self) -> None:
        """Schedule the first sweep."""
        self.store.sim.post(self.interval, self._sweep)

    def stop(self) -> None:
        """Stop after the current sweep (no further sweeps are scheduled)."""
        self._stopped = True

    def _sweep(self) -> None:
        if self._stopped:
            return
        st = self.store
        keys = st.written_keys()
        if keys:
            n = max(1, int(len(keys) * self.sample_fraction))
            idx = self.rng.choice(len(keys), size=min(n, len(keys)), replace=False)
            sample: List[str] = [keys[i] for i in idx]
            for key in sample:
                self._repair_key(key)
            self.keys_examined += len(sample)
        self.sweeps += 1
        st.sim.post(self.interval, self._sweep)

    def _repair_key(self, key: str) -> None:
        """Stream the newest replica version to every lagging live replica.

        During a pending migration this spans both sides of the hand-off
        (old owners hold the data, incoming owners must converge).
        """
        st = self.store
        replicas = st.all_replicas(key)
        best = None
        holder = None
        for r in replicas:
            v = st.nodes[r].data.get(key)
            if v is not None and (best is None or v.newer_than(best)):
                best, holder = v, r
        if best is None or holder is None:
            return
        for r in replicas:
            node = st.nodes[r]
            if not node.up or r == holder:
                continue
            local = node.data.get(key)
            if local is None or best.newer_than(local):
                self.repairs_streamed += 1
                st.network.send(
                    holder,
                    r,
                    st.sizes.request_overhead + best.size,
                    node.handle_write,
                    key,
                    best,
                    _ignore,
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AntiEntropyRepair(sweeps={self.sweeps}, "
            f"examined={self.keys_examined}, streamed={self.repairs_streamed})"
        )


def _ignore(node_id: int, key: str, version) -> None:
    """Repair streams need no acknowledgement."""
