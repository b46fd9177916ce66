"""Tests for Algorithm R3 (LMR3+) and the naive variant (LMR3-)."""

import pytest

from repro.lmerge.r3 import LMergeR3
from repro.lmerge.r3_naive import LMergeR3Naive
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


ALGORITHMS = [LMergeR3, LMergeR3Naive]


@pytest.fixture(params=ALGORITHMS, ids=["LMR3+", "LMR3-"])
def algorithm(request):
    return request.param


class TestPaperTableI:
    """Merging the paper's Phy1/Phy2 yields the Table I TDB."""

    def make_inputs(self):
        phy1 = PhysicalStream(
            [
                Insert("B", 8, INFINITY),
                Insert("A", 6, 12),
                Adjust("B", 8, INFINITY, 10),
                Stable(11),
                Stable(INFINITY),
            ]
        )
        phy2 = PhysicalStream(
            [
                Insert("A", 6, 7),
                Insert("B", 8, 15),
                Adjust("A", 6, 7, 12),
                Adjust("B", 8, 15, 10),
                Stable(INFINITY),
            ]
        )
        return [phy1, phy2]

    def test_merge_round_robin(self, algorithm):
        expected = TDB([Event(6, "A", 12), Event(8, "B", 10)])
        merge = algorithm()
        output = merge.merge(self.make_inputs())
        assert output.tdb() == expected

    def test_merge_all_schedules(self, algorithm):
        expected = TDB([Event(6, "A", 12), Event(8, "B", 10)])
        for schedule in ("round_robin", "sequential", "random"):
            merge = algorithm()
            output = merge.merge(self.make_inputs(), schedule=schedule)
            assert output.tdb() == expected, schedule


class TestIntroPunctuationHazard:
    """Section I-B.2: after following Phy2's a(A,6,7) and a(B,8,15),
    Phy1's f(11) must not freeze the output prematurely."""

    def test_stable_held_back_correctly(self):
        merge = attach(LMergeR3())
        merge.process(Insert("A", 6, 7), 1)
        merge.process(Insert("B", 8, 15), 1)
        merge.process(Stable(11), 0)
        # Emitting stable(11) naively would freeze A at [6,7) and prevent
        # B's end from dropping to 10.  R3 reconciles first: stream 0 has
        # produced neither event yet, so both must be withdrawn.
        output_tdb = merge.output.tdb()
        assert output_tdb.stable_point == 11
        assert not list(output_tdb)  # both events cancelled
        # ... and the events can still appear later from stream 0's data.
        merge.process(Insert("A2", 12, 20), 0)
        assert Event(12, "A2", 20) in merge.output.tdb()


class TestReconciliation:
    def test_no_input_event_on_freezing_stream_cancels(self):
        merge = attach(LMergeR3())
        merge.process(Insert("A", 5, 8), 1)
        merge.process(Stable(6), 0)  # stream 0 lacks A and freezes past 5
        tdb = merge.output.tdb()
        assert Event(5, "A", 8) not in tdb

    def test_output_matches_freezing_streams_ve(self):
        merge = attach(LMergeR3())
        merge.process(Insert("A", 5, 8), 1)
        merge.process(Insert("A", 5, 10), 0)
        merge.process(Stable(12), 0)  # fully freezes A at stream 0's Ve=10
        assert Event(5, "A", 10) in merge.output.tdb()

    def test_half_frozen_divergence_tolerated(self):
        """Both Ve values past the stable point: no adjust needed yet."""
        merge = attach(LMergeR3())
        merge.process(Insert("A", 5, 100), 1)
        merge.process(Insert("A", 5, 200), 0)
        merge.process(Stable(10), 0)
        assert merge.stats.adjusts_out == 0

    def test_node_deleted_when_fully_frozen(self):
        merge = attach(LMergeR3())
        merge.process(Insert("A", 5, 8), 0)
        assert merge.live_keys == 1
        merge.process(Stable(9), 0)
        assert merge.live_keys == 0

    def test_late_insert_for_frozen_key_dropped(self):
        merge = attach(LMergeR3())
        merge.process(Insert("A", 5, 8), 0)
        merge.process(Stable(9), 0)
        before = merge.stats.inserts_out
        merge.process(Insert("A", 5, 8), 1)  # laggard catches up
        assert merge.stats.inserts_out == before

    def test_adjust_for_unknown_key_ignored(self):
        merge = attach(LMergeR3())
        merge.process(Adjust("ghost", 5, 8, 9), 0)
        assert merge.stats.elements_out == 0

    def test_stable_regression_ignored(self):
        merge = attach(LMergeR3())
        merge.process(Stable(10), 0)
        merge.process(Stable(7), 1)
        assert merge.stats.stables_out == 1


class TestTheorem1NonChattiness:
    """Theorem 1: R3 outputs no more insert()+adjust() elements than the
    inserts received, and no more stables than stables received."""

    @pytest.mark.parametrize("speculate", [0.0, 0.3, 0.8])
    def test_bound_holds(self, speculate):
        reference = small_stream(count=600, seed=3)
        inputs = divergent_inputs(reference, n=3, speculate_fraction=speculate)
        merge = LMergeR3()
        merge.merge(inputs, schedule="random", seed=5)
        assert (
            merge.stats.inserts_out + merge.stats.adjusts_out
            <= merge.stats.inserts_in
        )
        assert merge.stats.stables_out <= merge.stats.stables_in


class TestOracleCompliance:
    """At every stable the output prefix satisfies C1-C3 (``oracle.py``)."""

    def test_oracle_round_robin(self, algorithm):
        check(algorithm.algorithm, seed=7, paths=("process",), policies=("none",))

    def test_oracle_random_schedule(self, algorithm):
        check(algorithm.algorithm, seed=8, roster=False, paths=("process",),
              policies=("none",))

    def test_oracle_with_thinned_stables(self, algorithm):
        check(algorithm.algorithm, Shape(stable_keep=0.4), 9,
              paths=("process",), policies=("none",))


class TestEquivalenceAtScale:
    @pytest.mark.parametrize("schedule", ["round_robin", "sequential", "random"])
    def test_divergent_replicas(self, algorithm, schedule):
        reference = small_stream(count=800, seed=11)
        inputs = divergent_inputs(reference, n=4, speculate_fraction=0.35)
        output = algorithm().merge(inputs, schedule=schedule)
        assert output.tdb() == reference.tdb()

    def test_single_input_passthrough_equivalence(self, algorithm):
        reference = small_stream(count=400, seed=12)
        assert algorithm().merge([reference]).tdb() == reference.tdb()

    def test_many_inputs(self, algorithm):
        reference = small_stream(count=300, seed=13)
        inputs = divergent_inputs(reference, n=8, speculate_fraction=0.3)
        assert algorithm().merge(inputs).tdb() == reference.tdb()


class TestDetach:
    def test_detach_removes_influence(self):
        merge = attach(LMergeR3(), n=3)
        merge.process(Insert("A", 5, 100), 2)
        merge.detach(2)
        # Stream 0 freezes past A without having produced it -> cancel.
        merge.process(Stable(50), 0)
        assert Event(5, "A", 100) not in merge.output.tdb()

    def test_survives_failure_of_all_but_one(self):
        reference = small_stream(count=300, seed=14)
        inputs = divergent_inputs(reference, n=3)
        merge = attach(LMergeR3(), n=3)
        # Streams 1 and 2 deliver only a prefix, then die.
        for element in inputs[1][: len(inputs[1]) // 3]:
            merge.process(element, 1)
        for element in inputs[2][: len(inputs[2]) // 2]:
            merge.process(element, 2)
        merge.detach(1)
        merge.detach(2)
        for element in inputs[0]:
            merge.process(element, 0)
        assert merge.output.tdb() == reference.tdb()


class TestMemorySharing:
    def test_r3_plus_beats_naive_on_many_inputs(self):
        """The Fig. 2 claim in miniature: in2t's payload sharing keeps
        LMR3+ memory roughly flat in the input count while LMR3- grows."""
        reference = small_stream(count=400, seed=15, blob=200, stable_freq=0.0)
        inputs = divergent_inputs(reference, n=6)
        plus, naive = LMergeR3(), LMergeR3Naive()
        peak_plus = peak_naive = 0
        for merge, tracker in ((plus, "plus"), (naive, "naive")):
            for stream_id in range(len(inputs)):
                merge.attach(stream_id)
        from repro.lmerge.base import interleave

        for element, stream_id in interleave(inputs, "round_robin", 0):
            plus.process(element, stream_id)
            naive.process(element, stream_id)
            peak_plus = max(peak_plus, plus.memory_bytes())
            peak_naive = max(peak_naive, naive.memory_bytes())
        assert peak_naive > 2 * peak_plus
