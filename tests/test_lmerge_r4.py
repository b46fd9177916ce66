"""Tests for Algorithm R4 (LMR4): multiset TDBs, duplicates, and the
AdjustOutputCount / AdjustOutput invariants."""

import random

import pytest

from repro.lmerge.r4 import LMergeR4
from repro.streams.divergence import diverge, duplicate_inserts
from repro.streams.stream import PhysicalStream
from repro.temporal.elements import Adjust, Insert, Stable
from repro.temporal.event import Event
from repro.temporal.tdb import TDB
from repro.temporal.time import INFINITY

from conftest import divergent_inputs, small_stream
from oracle import Shape, check


def attach(merge, n=2):
    for stream_id in range(n):
        merge.attach(stream_id)
    return merge


class TestDuplicateEvents:
    def test_exact_duplicates_preserved(self):
        """Two identical events on every input -> two on the output."""
        stream = PhysicalStream(
            [Insert("A", 1, 5), Insert("A", 1, 5), Stable(INFINITY)]
        )
        merge = LMergeR4()
        output = merge.merge([stream, stream])
        assert output.tdb().count(Event(1, "A", 5)) == 2

    def test_count_based_dedup_on_insert(self):
        """Line 9: an insert is output only when the delivering stream's
        count exceeds the output's count for the key."""
        merge = attach(LMergeR4())
        merge.process(Insert("A", 1, 5), 0)
        merge.process(Insert("A", 1, 5), 1)  # duplicate from the other input
        assert merge.stats.inserts_out == 1
        merge.process(Insert("A", 1, 5), 1)  # second copy on input 1: new
        assert merge.stats.inserts_out == 2

    def test_same_key_different_ves(self):
        stream = PhysicalStream(
            [Insert("A", 1, 5), Insert("A", 1, 9), Stable(INFINITY)]
        )
        merge = LMergeR4()
        output = merge.merge([stream, stream, stream])
        tdb = output.tdb()
        assert tdb.count(Event(1, "A", 5)) == 1
        assert tdb.count(Event(1, "A", 9)) == 1


class TestAdjustHandling:
    def test_adjust_moves_count(self):
        merge = attach(LMergeR4())
        merge.process(Insert("A", 1, 5), 0)
        merge.process(Adjust("A", 1, 5, 9), 0)
        merge.process(Stable(INFINITY), 0)
        assert merge.output.tdb() == TDB([Event(1, "A", 9)])

    def test_cancel_removes(self):
        merge = attach(LMergeR4())
        merge.process(Insert("A", 1, 5), 0)
        merge.process(Adjust("A", 1, 5, 1), 0)
        merge.process(Stable(INFINITY), 0)
        assert len(merge.output.tdb()) == 0

    def test_adjust_unknown_key_ignored(self):
        merge = attach(LMergeR4())
        merge.process(Adjust("ghost", 1, 5, 9), 0)
        assert merge.stats.elements_out == 0

    def test_adjust_untracked_version_ignored(self):
        """A revision referencing a version this input never delivered
        here (e.g. replayed history) is irrelevant."""
        merge = attach(LMergeR4())
        merge.process(Insert("A", 1, 5), 0)
        merge.process(Adjust("A", 1, 99, 7), 1)  # input 1 never inserted A
        merge.process(Stable(INFINITY), 0)
        assert merge.output.tdb() == TDB([Event(1, "A", 5)])


class TestStableInvariants:
    def test_output_count_pinned_at_half_freeze(self):
        """AdjustOutputCount: the freezing input has two copies, the
        output only one -> a second insert is emitted before stable()."""
        merge = attach(LMergeR4())
        merge.process(Insert("A", 1, 5), 0)
        merge.process(Insert("A", 1, 5), 0)
        # Output has 2 (both from input 0).  Input 1 delivers only one and
        # then freezes: output must come down to one copy.
        merge.process(Insert("A", 1, 5), 1)
        merge.process(Stable(3), 1)
        tdb = merge.output.tdb()
        assert tdb.count(Event(1, "A", 5)) == 1

    def test_surplus_cancelled_on_freeze(self):
        merge = attach(LMergeR4())
        merge.process(Insert("A", 1, 5), 0)
        merge.process(Insert("A", 1, 9), 0)
        merge.process(Insert("A", 1, 5), 1)
        merge.process(Stable(10), 1)  # input 1 holds exactly one copy at Ve=5
        tdb = merge.output.tdb()
        assert tdb.count(Event(1, "A", 5)) == 1
        assert tdb.count(Event(1, "A", 9)) == 0

    def test_missing_version_retimed_on_freeze(self):
        """AdjustOutput: the output's version is retimed to the input's
        fully frozen Ve rather than deleted + reinserted."""
        merge = attach(LMergeR4())
        merge.process(Insert("A", 1, 9), 0)  # output carries Ve=9
        merge.process(Insert("A", 1, 5), 1)  # input 1's version ends at 5
        merge.process(Stable(7), 1)  # freezes Ve=5 fully
        tdb = merge.output.tdb()
        assert tdb.count(Event(1, "A", 5)) == 1
        assert tdb.count(Event(1, "A", 9)) == 0

    def test_node_deleted_when_all_versions_frozen(self):
        merge = attach(LMergeR4())
        merge.process(Insert("A", 1, 5), 0)
        assert merge.live_keys == 1
        merge.process(Stable(6), 0)
        assert merge.live_keys == 0

    def test_stable_forwarded_after_reconciliation(self):
        merge = attach(LMergeR4())
        merge.process(Insert("A", 1, 5), 1)
        merge.process(Stable(6), 0)  # input 0 never had A
        output = list(merge.output)
        # The cancel must precede the stable on the output stream.
        assert isinstance(output[-1], Stable)
        merge.output.tdb()  # strict reconstitution validates ordering


class TestEquivalenceWithDuplicates:
    def test_duplicated_replicas(self):
        reference = small_stream(count=300, seed=21)
        rng = random.Random(77)
        duplicated = duplicate_inserts(reference, rng, fraction=0.2)
        inputs = [
            diverge(duplicated, seed=i, speculate_fraction=0.3) for i in range(3)
        ]
        merge = LMergeR4()
        output = merge.merge(inputs, schedule="random", seed=1)
        assert output.tdb() == duplicated.tdb()

    @pytest.mark.parametrize("schedule", ["round_robin", "sequential", "random"])
    def test_keyed_inputs_all_schedules(self, schedule):
        reference = small_stream(count=500, seed=22)
        inputs = divergent_inputs(reference, n=3, speculate_fraction=0.4)
        merge = LMergeR4()
        output = merge.merge(inputs, schedule=schedule)
        assert output.tdb() == reference.tdb()

    def test_r4_conformance_oracle(self):
        check("LMR4", Shape(duplicates=0.0), 23, paths=("process",),
              policies=("none",))

    def test_r4_conformance_oracle_with_duplicates(self):
        # Key property does not hold: only the R4 count oracle applies.
        check("LMR4", seed=24, paths=("process",), policies=("none",))


class TestDetach:
    def test_detach_unblocks_progress(self):
        merge = attach(LMergeR4(), n=2)
        merge.process(Insert("A", 1, 5), 0)
        merge.detach(0)
        merge.process(Insert("A", 1, 5), 1)
        merge.process(Stable(INFINITY), 1)
        assert merge.output.tdb() == TDB([Event(1, "A", 5)])

    def test_survives_failure_of_all_but_one(self):
        reference = small_stream(count=300, seed=25)
        inputs = divergent_inputs(reference, n=3)
        merge = attach(LMergeR4(), n=3)
        for element in inputs[1][: len(inputs[1]) // 2]:
            merge.process(element, 1)
        merge.detach(1)
        for element in inputs[0]:
            merge.process(element, 0)
        merge.detach(2)
        assert merge.output.tdb() == reference.tdb()
