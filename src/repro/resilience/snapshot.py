"""Persisting merge snapshots in a :class:`~repro.resilience.store.StateStore`.

A shard worker's durable record is one pickled dict under
:data:`SNAPSHOT_KEY`:

``merge``
    ``LMergeBase.snapshot_state()`` — inputs, frontier, stats, and the
    variant's index contents (In2T/In3T snapshots).
``applied_seq``
    The last input-journal sequence number reflected in that state.
``emitted``
    Output elements produced so far (the driver's dedup coordinate).

Writing the record *then* acking lets the supervisor trim its in-memory
journal: everything at or before ``applied_seq`` can be replayed from
disk instead.
"""

from __future__ import annotations

import pickle
from typing import Any, Optional, Tuple

from repro.resilience.store import StateStore

__all__ = ["SNAPSHOT_KEY", "save_snapshot", "load_snapshot"]

#: Store key holding the latest worker snapshot.
SNAPSHOT_KEY = "snapshot"

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


def save_snapshot(
    store: StateStore, merge: Any, applied_seq: int, emitted: int
) -> None:
    """Persist *merge*'s state at input position *applied_seq*.

    The record is at the OS before return — once this function returns, a
    ``kill -9`` cannot lose the checkpoint.
    """
    record = {
        "merge": merge.snapshot_state(),
        "applied_seq": applied_seq,
        "emitted": emitted,
    }
    store.put(SNAPSHOT_KEY, pickle.dumps(record, _PICKLE_PROTOCOL))


def load_snapshot(store: StateStore) -> Optional[Tuple[dict, int, int]]:
    """The latest ``(merge_state, applied_seq, emitted)``, or None."""
    blob = store.get(SNAPSHOT_KEY)
    if blob is None:
        return None
    record = pickle.loads(blob)
    return record["merge"], record["applied_seq"], record["emitted"]
