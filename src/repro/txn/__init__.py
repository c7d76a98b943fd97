"""Atomic multi-key transactions over the replicated store.

The paper's engines (Harmony/Bismar) tune *per-read* consistency; this
package layers *multi-key atomicity* on top, so the reproduction can study
how adaptive consistency interacts with transactions -- the regime where
staleness bites hardest (a transaction that reads stale replicas can
commit an inconsistent snapshot, or abort when commit-time validation
catches it).

The design is classic presumed-abort two-phase commit, simulated on the
same deterministic event loop as everything else:

- :mod:`repro.txn.wal` -- per-node write-ahead logs whose records survive
  simulated crashes (volatile state does not);
- :mod:`repro.txn.participant` -- the replica-side prepare/commit state
  machine (prepare locks, commit-time read validation, WAL recovery);
- :mod:`repro.txn.tm` -- the transaction-manager state machine (vote
  collection, decision logging, decision retry, recovery pass);
- :mod:`repro.txn.api` -- :class:`TransactionalStore`, the client facade
  exposing ``begin/read/write/commit`` with reads routed through the
  active consistency policy;
- :mod:`repro.txn.runner` -- the transactional closed-loop client and
  :class:`TxnRunner`, the :class:`~repro.workload.client.WorkloadRunner`
  :func:`repro.run` builds for a transactional mix.
"""

from repro.txn.api import Transaction, TransactionalStore, TxnConfig, TxnOutcome
from repro.txn.runner import TxnRunner
from repro.txn.wal import WalRecord, WriteAheadLog

__all__ = [
    "Transaction",
    "TransactionalStore",
    "TxnConfig",
    "TxnOutcome",
    "TxnRunner",
    "WalRecord",
    "WriteAheadLog",
]
