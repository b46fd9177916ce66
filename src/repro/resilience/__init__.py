"""Crash recovery for merge plans (``repro.resilience``).

The paper's premise is that stream consumers survive the failure of any
physical source; this package makes the *merge process itself* crash
recoverable:

* :class:`~repro.resilience.store.StateStore` — a dependency-free
  per-key store: two CRC'd slots per key, overwritten in turn, so a
  crash tears at most the slot being written;
* :func:`~repro.resilience.snapshot.save_snapshot` /
  :func:`~repro.resilience.snapshot.load_snapshot` — durable LMerge
  state snapshots (per-input frontiers, stats, In2T/In3T contents);
* :class:`~repro.resilience.supervisor.SupervisedRuntime` — heartbeated,
  journaled shard workers with bounded restart-and-replay recovery;
* :class:`~repro.resilience.faults.FaultPlan` and
  :mod:`~repro.resilience.chaos` — seeded fault injection and the
  equivalence-checked chaos matrix that proves the above.

See docs/RESILIENCE.md for the full design.
"""

from repro.resilience.faults import KILL_EXIT_CODE, FaultPlan
from repro.resilience.snapshot import (
    SNAPSHOT_KEY,
    load_snapshot,
    save_snapshot,
)
from repro.resilience.store import (
    CorruptStateError,
    StateStore,
    StateStoreError,
)
from repro.resilience.supervisor import RecoveryRecord, SupervisedRuntime

__all__ = [
    "CorruptStateError",
    "FaultPlan",
    "KILL_EXIT_CODE",
    "RecoveryRecord",
    "SNAPSHOT_KEY",
    "StateStore",
    "StateStoreError",
    "SupervisedRuntime",
    "load_snapshot",
    "save_snapshot",
]
