"""Bounded merge state: settled pruning.

Covers the contracts:

* with ``reclamation=None`` (the default) behaviour is the seed's,
  bit-for-bit;
* with pruning enabled the *output* stays element-identical on
  equivalence workloads while resident state stays O(disorder window);
* snapshot -> prune -> restore round-trips element-identically across
  R0-R4;
* the semantic relaxation is pinned: a re-insert of a pruned key is
  dropped exactly like the seed drops re-inserts of frozen keys;
* sharded plans thread the policy through and preserve TDB equivalence.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lmerge import ReclamationPolicy
from repro.temporal.elements import Insert, Stable
from repro.temporal.time import INFINITY

from oracle import SHAPES, VARIANTS, check, check_sharded

ALL_VARIANTS = ["LMR0", "LMR1", "LMR2", "LMR3+", "LMR4"]
INDEXED = ["LMR3+", "LMR4"]

PRUNE = ReclamationPolicy()


def drive_lagged(merge, n=2000, run=50, window=800):
    """Two replicas of an infinite-Ve point stream; replica 1 trails by
    *window* elements.  The shape that makes seed state grow O(n)."""
    merge.attach(0)
    merge.attach(1)
    backlog = []
    for i in range(n):
        merge.process(Insert(f"p{i}", i, INFINITY), 0)
        backlog.append(Insert(f"p{i}", i, INFINITY))
        if i % run == run - 1:
            merge.process(Stable(i), 0)
        if len(backlog) > window:
            element = backlog.pop(0)
            merge.process(element, 1)
            if element.vs % run == run - 1:
                merge.process(Stable(element.vs), 1)
    return merge


class TestSeedDefault:
    def test_default_is_seed_identical(self):
        for name in INDEXED:
            assert VARIANTS[name]().reclamation is None
            check(name, seed=3, paths=("process",))

    def test_policy_validation(self):
        """The policy is an on/off switch: no field to set, no spill, no
        settle lag — and it still crosses a process boundary intact."""
        assert dataclasses.fields(ReclamationPolicy) == ()
        with pytest.raises(TypeError):
            ReclamationPolicy(spill=True)
        with pytest.raises(TypeError):
            ReclamationPolicy(settle_lag=1)
        assert pickle.loads(pickle.dumps(PRUNE)) == PRUNE == ReclamationPolicy()


class TestPrunedOutputEquivalence:
    @settings(max_examples=6)
    @given(
        name=st.sampled_from(INDEXED),
        seed=st.integers(0, 30),
        shape=st.sampled_from(sorted(SHAPES)),
    )
    def test_output_identical_on_equivalence_workloads(self, name, seed, shape):
        check(name, shape, seed, paths=("process",))

    def test_resident_state_stays_bounded(self):
        for name in INDEXED:
            variant = VARIANTS[name]
            seed_merge = drive_lagged(variant(), window=200)
            rec_merge = drive_lagged(variant(reclamation=PRUNE), window=200)
            assert list(seed_merge.output) == list(rec_merge.output)
            # Seed retains every never-fully-frozen key; reclamation holds
            # only the unsettled lag window.
            assert seed_merge.live_keys > 1500
            assert rec_merge.index_nodes <= 300
            assert rec_merge.pruned_nodes > 1500


class TestPostPruneSemantics:
    def test_reinsert_of_pruned_key_silent_like_seed(self):
        """A pruned key's Vs is below MaxStable, so a late re-insert is
        silent on both sides: the seed still holds the node and absorbs
        the duplicate; the reclaiming merge takes the dropped_frozen
        path.  Either way, nothing reaches the output."""
        for name in INDEXED:
            variant = VARIANTS[name]
            seed_merge, rec_merge = variant(), variant(reclamation=PRUNE)
            for merge in (seed_merge, rec_merge):
                merge.attach(0)
                merge.attach(1)
                for sid in (0, 1):
                    merge.process(Insert("a", 1, INFINITY), sid)
                for sid in (0, 1):
                    merge.process(Stable(10), sid)
                before = len(merge.output)
                merge.process(Insert("a", 1, INFINITY), 0)
                assert len(merge.output) == before
            assert seed_merge.dropped_frozen == 0  # node retained
            assert rec_merge.dropped_frozen == 1  # node pruned
            assert rec_merge.index_nodes == 0
            assert list(seed_merge.output) == list(rec_merge.output)


class TestSnapshotRestore:
    @settings(max_examples=10)
    @given(name=st.sampled_from(ALL_VARIANTS), seed=st.integers(0, 20))
    def test_snapshot_prune_restore_roundtrip(self, name, seed):
        """snapshot -> restore with reclamation on resumes to the same
        output as running straight through (R0-R2 ignore the policy)."""
        check(name, seed=seed, paths=("process",), policies=("prune",))


class TestShardedWithReclamation:
    @settings(max_examples=8)
    @given(
        name=st.sampled_from(INDEXED),
        num_shards=st.integers(1, 4),
        seed=st.integers(0, 15),
    )
    def test_sharded_tdb_equivalence_with_pruning(self, name, num_shards, seed):
        check_sharded(name, seed=seed, shards=num_shards, backend="serial",
                      reclamation=PRUNE)


class TestFreelists:
    def test_retained_node_fails_loudly_after_prune(self):
        """A node object retained past its retirement must not be usable
        as if it were still in the index."""
        from repro.structures.in3t import In3T

        index = In3T()
        stale = index.find_or_add(Insert("A", 1, 5))
        stale.increment(0, 5)
        assert index.prune_below(2) == 1
        fresh = index.find_or_add(Insert("B", 3, 9))
        for use in (
            lambda: stale.increment(0, 7),
            lambda: stale.decrement(0, 5),
            lambda: stale.total_count(0),
            lambda: stale.max_ve(0),
        ):
            with pytest.raises(AttributeError):
                use()
        assert fresh.is_empty() and fresh.total_count(0) == 0
