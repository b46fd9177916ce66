"""Bounded merge state (PR 8): pruning and cold-run spill.

Covers the tentpole's contracts:

* with ``reclamation=None`` (the default) behaviour is the seed's,
  bit-for-bit;
* with pruning enabled the *output* stays element-identical on
  equivalence workloads while resident state stays O(disorder window);
* snapshot -> prune -> restore (and the reverse order) round-trip
  element-identically across R0-R4, including with runs spilled into the
  durable StateStore;
* the semantic relaxation is pinned: a re-insert of a pruned key is
  dropped exactly like the seed drops re-inserts of frozen keys;
* sharded plans thread the policy through and preserve TDB equivalence.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lmerge import (
    LMergeR0,
    LMergeR1,
    LMergeR2,
    LMergeR3,
    LMergeR4,
    ReclamationPolicy,
)
from repro.lmerge.shard import shard
from repro.structures.spill import RunSpill
from repro.temporal.elements import Insert, Stable
from repro.temporal.time import INFINITY
from repro.theory.equivalence import equivalent_prefixes

from conftest import divergent_inputs, small_stream

ALL_VARIANTS = [LMergeR0, LMergeR1, LMergeR2, LMergeR3, LMergeR4]
INDEXED = [LMergeR3, LMergeR4]

PRUNE = ReclamationPolicy()
PRUNE_LAGGED = ReclamationPolicy(settle_lag=100)


def spill_policy(**overrides):
    defaults = dict(spill=True, run_width=64, hot_runs=2)
    defaults.update(overrides)
    return ReclamationPolicy(**defaults)


def variant_inputs(variant, seed, disorder=0.3):
    if variant in (LMergeR0, LMergeR1, LMergeR2):
        reference = small_stream(count=120, seed=seed, disorder=0.0, min_gap=1)
        return reference, [reference, reference]
    reference = small_stream(count=120, seed=seed, disorder=disorder)
    return reference, divergent_inputs(reference, n=2)


def replay(merge, inputs):
    return merge.merge([list(s) for s in inputs], schedule="round_robin")


def drive_lagged(merge, n=2000, run=50, window=800):
    """Two replicas of an infinite-Ve point stream; replica 1 trails by
    *window* elements.  The shape that makes seed state grow O(n) and
    gives the spill a cold tail to evict."""
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
        for variant in INDEXED:
            reference, inputs = variant_inputs(variant, seed=3)
            seed_out = replay(variant(), inputs)
            default_out = replay(variant(reclamation=None), inputs)
            assert list(seed_out) == list(default_out)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ReclamationPolicy(settle_lag=-1)
        with pytest.raises(ValueError):
            ReclamationPolicy(run_width=0)
        with pytest.raises(ValueError):
            ReclamationPolicy(hot_runs=-1)


class TestPrunedOutputEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        variant=st.sampled_from(INDEXED),
        seed=st.integers(0, 30),
        disorder=st.sampled_from([0.0, 0.2, 0.5]),
        policy=st.sampled_from([PRUNE, PRUNE_LAGGED]),
    )
    def test_output_identical_on_equivalence_workloads(
        self, variant, seed, disorder, policy
    ):
        reference, inputs = variant_inputs(variant, seed, disorder)
        seed_out = replay(variant(), inputs)
        rec_out = replay(variant(reclamation=policy), inputs)
        assert list(seed_out) == list(rec_out)

    def test_resident_state_stays_bounded(self):
        for variant in INDEXED:
            seed_merge = drive_lagged(variant(), window=200)
            rec_merge = drive_lagged(variant(reclamation=PRUNE), window=200)
            assert list(seed_merge.output) == list(rec_merge.output)
            # Seed retains every never-fully-frozen key; reclamation holds
            # only the unsettled lag window.
            assert seed_merge.live_keys > 1500
            assert rec_merge.index_nodes <= 300
            assert rec_merge.pruned_nodes > 1500

    def test_settle_lag_retains_window(self):
        eager = drive_lagged(LMergeR3(reclamation=PRUNE), window=200)
        lagged = drive_lagged(
            LMergeR3(reclamation=ReclamationPolicy(settle_lag=500)),
            window=200,
        )
        assert list(eager.output) == list(lagged.output)
        assert lagged.index_nodes > eager.index_nodes
        assert lagged.index_nodes >= 500 // 50  # at least the lag window


class TestPostPruneSemantics:
    def test_reinsert_of_pruned_key_silent_like_seed(self):
        """A pruned key's Vs is below MaxStable, so a late re-insert is
        silent on both sides: the seed still holds the node and absorbs
        the duplicate; the reclaiming merge takes the dropped_frozen
        path.  Either way, nothing reaches the output."""
        for variant in INDEXED:
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
    @settings(max_examples=10, deadline=None)
    @given(variant=st.sampled_from(ALL_VARIANTS), seed=st.integers(0, 20))
    def test_snapshot_prune_restore_roundtrip(self, variant, seed):
        """snapshot -> restore with reclamation on resumes to the same
        output as running straight through (R0-R2 ignore the policy)."""
        reference, inputs = variant_inputs(variant, seed)
        policy = PRUNE
        straight = replay(variant(reclamation=policy), inputs)

        interleaved = list(
            __import__("repro.lmerge.base", fromlist=["interleave"]).interleave(
                [list(s) for s in inputs], "round_robin"
            )
        )
        cut = len(interleaved) // 2
        first = variant(reclamation=policy)
        for index in range(len(inputs)):
            first.attach(index)
        for element, sid in interleaved[:cut]:
            first.process(element, sid)
        snap = first.snapshot_state()

        second = variant(reclamation=policy)
        second.restore_state(snap)
        prefix = list(first.output)
        for element, sid in interleaved[cut:]:
            second.process(element, sid)
        assert prefix + list(second.output) == list(straight)

    def test_spilled_snapshot_matches_resident_snapshot(self):
        """Element-identical durable state whether or not runs are
        spilled at capture time, both directions."""
        for variant in INDEXED:
            spilled = drive_lagged(variant(reclamation=spill_policy()))
            resident = drive_lagged(variant(reclamation=PRUNE))
            assert list(spilled.output) == list(resident.output)
            assert spilled._spiller.spilled_nodes > 0
            snap_spilled = spilled.snapshot_state()
            snap_resident = resident.snapshot_state()
            assert (
                snap_spilled["extra"]["index"]
                == snap_resident["extra"]["index"]
            )

            # restore a spilled snapshot into a spilling merge and back out
            fresh = variant(reclamation=spill_policy())
            fresh.restore_state(snap_spilled)
            assert (
                fresh.snapshot_state()["extra"]["index"]
                == snap_resident["extra"]["index"]
            )
            # and a resident snapshot into a spilling merge
            other = variant(reclamation=spill_policy())
            other.restore_state(snap_resident)
            assert (
                other.snapshot_state()["extra"]["index"]
                == snap_resident["extra"]["index"]
            )

    def test_restore_clears_previous_spill_namespace(self, tmp_path):
        directory = os.fspath(tmp_path / "spill")
        policy = spill_policy(store_dir=directory)
        first = drive_lagged(LMergeR3(reclamation=policy, name="m"))
        assert first._spiller.has_spilled
        snap = first.snapshot_state()

        # A restarted incarnation sharing the directory must not resurrect
        # the old runs next to the restored records.
        second = LMergeR3(
            reclamation=spill_policy(store_dir=directory), name="m"
        )
        second.restore_state(snap)
        assert not second._spiller.has_spilled
        resident = drive_lagged(LMergeR3(reclamation=PRUNE))
        assert (
            second.snapshot_state()["extra"]["index"]
            == resident.snapshot_state()["extra"]["index"]
        )


class TestSpillBehaviour:
    def test_spill_output_identical_and_faults_on_touch(self):
        for variant in INDEXED:
            seed_merge = drive_lagged(variant())
            sp = drive_lagged(variant(reclamation=spill_policy()))
            assert list(seed_merge.output) == list(sp.output)
            stats = sp._spiller.stats()
            assert stats["spilled_runs_total"] > 0
            assert stats["faulted_runs_total"] > 0
            # spilled nodes are part of the logical key count
            assert sp.live_keys == sp.index_nodes + sp.spilled_nodes

    def test_covered_frozen_runs_drop_without_faulting(self):
        """A big stable() from the covering stream retires spilled runs
        whose summary proves them fully frozen — straight from the store,
        no deserialization."""

        def build(policy):
            merge = LMergeR3(reclamation=policy)
            merge.attach(0)
            merge.attach(1)  # attached but silent: its runs stay cold
            for i in range(512):
                merge.process(Insert(f"p{i}", i, float(i + 5000)), 0)
                if i % 32 == 31:
                    merge.process(Stable(i), 0)
            merge.process(Stable(10_000), 0)
            return merge

        merge = build(spill_policy(run_width=32, hot_runs=0))
        stats = merge._spiller.stats()
        assert stats["spilled_runs_total"] > 0
        assert stats["dropped_runs_total"] > 0
        # In-order inserts only touch the newest (never-spilled) run, and
        # the frozen runs died summary-only: nothing ever faulted in.
        assert stats["faulted_runs_total"] == 0
        assert merge.index_nodes == 0 and merge.spilled_nodes == 0
        # Seed-identical output: those nodes die silently there too.
        assert list(merge.output) == list(build(ReclamationPolicy(spill=False)).output)

    def test_run_of_handles_non_finite(self):
        spill = RunSpill(run_width=64)
        assert spill.run_of(float("inf")) is None
        assert spill.run_of(float("-inf")) is None
        assert spill.run_of(128) == 2
        spill.close()


class TestShardedWithReclamation:
    @settings(max_examples=8, deadline=None)
    @given(
        variant=st.sampled_from(INDEXED),
        num_shards=st.integers(1, 4),
        seed=st.integers(0, 15),
    )
    def test_sharded_tdb_equivalence_with_pruning(
        self, variant, num_shards, seed
    ):
        reference, inputs = variant_inputs(variant, seed)
        plan = shard(
            variant, num_shards, backend="serial", reclamation=PRUNE_LAGGED
        )
        output = plan.merge([list(s) for s in inputs], schedule="round_robin")
        unsharded = replay(variant(), inputs)
        assert output.tdb() == unsharded.tdb() == reference.tdb()
        assert equivalent_prefixes(
            list(output), len(output), list(unsharded), len(unsharded)
        )

    def test_sharded_with_spill(self, tmp_path):
        policy = spill_policy(store_dir=os.fspath(tmp_path / "shards"))
        reference, inputs = variant_inputs(LMergeR3, seed=5)
        plan = shard(LMergeR3, 3, backend="serial", reclamation=policy)
        output = plan.merge([list(s) for s in inputs], schedule="round_robin")
        assert output.tdb() == reference.tdb()


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
