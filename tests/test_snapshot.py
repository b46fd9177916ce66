"""Merge state snapshot/restore: the worker-side half of crash recovery.

Every oracle script (``oracle.py``) carries a snapshot step — snapshot,
pickle, restore into a fresh instance — and every variant (R0-R4 and
LMR3-) must continue element-identically to a run without it.  This file
adds the in-memory handover, the persistence path through a
killed-and-reopened ``StateStore`` and the restore contract.
"""

import pickle

import pytest

from repro.lmerge.r0 import LMergeR0
from repro.lmerge.r1 import LMergeR1
from repro.lmerge.r2 import LMergeR2
from repro.lmerge.r3 import LMergeR3
from repro.lmerge.r3_naive import LMergeR3Naive
from repro.lmerge.r4 import LMergeR4
from repro.resilience.snapshot import load_snapshot, save_snapshot
from repro.resilience.store import StateStore
from repro.structures.in2t import OUTPUT

from oracle import FEEDS, apply, run, scenario, script

ALL_VARIANTS = [LMergeR0, LMergeR1, LMergeR2, LMergeR3, LMergeR3Naive, LMergeR4]


def assert_resumes_identically(variant, handover):
    """Cut a roster-free oracle script halfway, pass the merge through
    ``handover(merge, cut, emitted) -> state``, restore that into a fresh
    instance and finish the script: the continuation, statistics and
    stable point match a run straight through."""
    steps = script(scenario(variant.algorithm, seed=5).replicas, 5, roster=False)
    straight, whole = run(variant, steps, "batch")
    cut = len(steps) // 2
    out, interrupted = run(variant, steps[:cut], "batch")
    resumed = variant(sink=out.append)
    resumed.restore_state(handover(interrupted, cut, len(out)))
    assert resumed.input_ids == interrupted.input_ids
    for step in steps[cut:]:
        apply(resumed, step, FEEDS["batch"], None)
    assert out == straight
    assert (resumed.stats, resumed.max_stable) == (whole.stats, whole.max_stable)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("through_pickle", [False, True])
def test_snapshot_restore_identical_continuation(variant, through_pickle):
    """In memory, or across pickle as a respawned worker gets it."""

    def handover(merge, cut, emitted):
        state = merge.snapshot_state()
        return pickle.loads(pickle.dumps(state)) if through_pickle else state

    assert_resumes_identically(variant, handover)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_restore_rejects_wrong_algorithm(variant):
    merge = variant(sink=lambda e: None)
    snapshot = merge.snapshot_state()
    snapshot["algorithm"] = "not-this-one"
    other = variant(sink=lambda e: None)
    with pytest.raises(ValueError):
        other.restore_state(snapshot)


def test_output_sentinel_identity_survives_pickle():
    """In2T entries test ``key is OUTPUT`` by identity; a snapshot that
    crosses a process boundary must preserve the singleton."""
    clone = pickle.loads(pickle.dumps(OUTPUT))
    assert clone is OUTPUT


@pytest.mark.parametrize("variant", [LMergeR3, LMergeR4])
def test_snapshot_round_trip_through_state_store(tmp_path, variant):
    """The full worker persistence path: snapshot into a StateStore,
    'crash' (reopen without close), restore, and continue identically."""

    def handover(merge, cut, emitted):
        store = StateStore(str(tmp_path))
        save_snapshot(store, merge, applied_seq=cut, emitted=emitted)
        # kill -9: no close; a fresh open must see the synced snapshot.
        with StateStore(str(tmp_path)) as reopened:
            state, applied_seq, loaded = load_snapshot(reopened)
        store.close()
        assert (applied_seq, loaded) == (cut, emitted)
        return state

    assert_resumes_identically(variant, handover)


def test_load_snapshot_empty_store(tmp_path):
    with StateStore(str(tmp_path)) as store:
        assert load_snapshot(store) is None
