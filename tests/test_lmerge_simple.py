"""Tests for the specialized algorithms R0, R1, R2 (Algorithms R0-R2)."""

import pytest

from repro.lmerge.base import InputStateError, UnsupportedElementError
from repro.lmerge.r0 import LMergeR0
from repro.lmerge.r1 import LMergeR1
from repro.lmerge.r2 import LMergeR2
from repro.streams.stream import PhysicalStream
from repro.temporal.elements import Adjust, Insert, Stable
from repro.temporal.tdb import reconstitute
from repro.temporal.time import INFINITY



def attach(merge, n=2):
    for stream_id in range(n):
        merge.attach(stream_id)
    return merge


class TestR0:
    def test_identical_streams_deduplicated(self):
        merge = attach(LMergeR0())
        for stream_id in (0, 1):
            merge.process(Insert("A", 1, 5), stream_id)
            merge.process(Insert("B", 2, 6), stream_id)
        assert merge.stats.inserts_out == 2
        assert merge.output.tdb() == reconstitute([Insert("A", 1, 5), Insert("B", 2, 6)])

    def test_interleaved_lead_changes(self):
        merge = attach(LMergeR0())
        merge.process(Insert("A", 1), 0)
        merge.process(Insert("B", 2), 1)  # stream 1 takes the lead
        merge.process(Insert("B", 2), 0)  # duplicate from stream 0 dropped
        merge.process(Insert("C", 3), 0)  # stream 0 leads again
        assert [e.payload for e in merge.output.data_elements()] == ["A", "B", "C"]

    def test_stable_forwarded_once(self):
        merge = attach(LMergeR0())
        merge.process(Stable(5), 0)
        merge.process(Stable(5), 1)
        merge.process(Stable(3), 1)  # regression ignored
        assert merge.stats.stables_out == 1
        assert merge.max_stable == 5

    def test_adjust_rejected(self):
        merge = attach(LMergeR0())
        merge.process(Insert("A", 1, 5), 0)
        with pytest.raises(UnsupportedElementError):
            merge.process(Adjust("A", 1, 5, 9), 0)

    def test_constant_memory(self):
        merge = attach(LMergeR0(), n=8)
        for i in range(100):
            merge.process(Insert(("p", i), i, i + 10), i % 8)
        assert merge.memory_bytes() == 16

    def test_unattached_stream_rejected(self):
        merge = LMergeR0()
        with pytest.raises(InputStateError):
            merge.process(Insert("A", 1), 0)

    def test_missing_element_semantics(self):
        """Section V-C: a missing element is output as long as another
        stream delivers it before the laggard moves past it."""
        merge = attach(LMergeR0())
        merge.process(Insert("A", 1), 0)
        merge.process(Insert("B", 2), 1)  # stream 1 never saw A
        merge.process(Insert("C", 3), 0)  # stream 0 never saw B
        assert [e.payload for e in merge.output.data_elements()] == ["A", "B", "C"]


class TestR1:
    def test_duplicate_vs_deterministic_order(self):
        """Two streams deliver the same two same-Vs elements in the same
        order; output carries each exactly once."""
        merge = attach(LMergeR1())
        for stream_id in (0, 1):
            merge.process(Insert(("r1", "X"), 5, 9), stream_id)
            merge.process(Insert(("r2", "Y"), 5, 9), stream_id)
        assert merge.stats.inserts_out == 2
        payloads = [e.payload for e in merge.output.data_elements()]
        assert payloads == [("r1", "X"), ("r2", "Y")]

    def test_laggard_duplicates_dropped_by_count(self):
        merge = attach(LMergeR1())
        merge.process(Insert("X", 5), 0)
        merge.process(Insert("Y", 5), 0)
        merge.process(Insert("X", 5), 1)  # counts say: already output
        merge.process(Insert("Y", 5), 1)
        merge.process(Insert("Z", 5), 1)  # third at Vs=5: new
        assert [e.payload for e in merge.output.data_elements()] == ["X", "Y", "Z"]

    def test_new_vs_resets_counters(self):
        merge = attach(LMergeR1())
        merge.process(Insert("X", 5), 0)
        merge.process(Insert("A", 7), 1)  # advances MaxVs; counters reset
        merge.process(Insert("A", 7), 0)  # duplicate at new Vs
        assert merge.stats.inserts_out == 2

    def test_old_vs_dropped(self):
        merge = attach(LMergeR1())
        merge.process(Insert("X", 5), 0)
        merge.process(Insert("OLD", 3), 1)
        assert merge.stats.inserts_out == 1

    def test_adjust_rejected(self):
        merge = attach(LMergeR1())
        with pytest.raises(UnsupportedElementError):
            merge.process(Adjust("A", 1, 5, 9), 0)

    def test_detach_drops_counter(self):
        merge = attach(LMergeR1(), n=3)
        merge.process(Insert("X", 5), 0)
        merge.detach(2)
        assert merge.memory_bytes() < attach(LMergeR1(), n=3).memory_bytes() + 64

    @pytest.mark.parametrize("batched", [False, True])
    def test_detached_leader_keeps_its_high_water_mark(self, batched):
        """The leader of a same-Vs group leaves mid-group: the rows it
        delivered were output, so the follower's copies of them are not
        new, and only rows past the departed count are."""
        merge = attach(LMergeR1())

        def feed(payloads, stream_id, vs=1):
            run = [Insert(p, vs, 10) for p in payloads]
            if batched:
                merge.process_batch(run, stream_id)
            else:
                for element in run:
                    merge.process(element, stream_id)

        feed("abc", 0)
        feed("a", 1)
        merge.detach(0)
        feed("bcd", 1)
        feed("e", 1, vs=2)  # a new Vs forgets the departed count
        assert [e.payload for e in merge.output.data_elements()] == list("abcde")

    def test_equivalence_on_topk_like_workload(self):
        """Same-Vs batches in identical (rank) order across streams."""
        elements = []
        for window in range(20):
            for rank in range(3):
                elements.append(Insert((rank, f"p{window}"), window * 10, window * 10 + 10))
            elements.append(Stable(window * 10 + 1))
        elements.append(Stable(INFINITY))
        stream = PhysicalStream(elements)
        merge = LMergeR1()
        output = merge.merge([stream, stream, stream])
        assert output.tdb() == stream.tdb()


class TestR2:
    def test_same_vs_different_orders(self):
        """The R2 scenario: same-Vs elements arrive in different orders."""
        merge = attach(LMergeR2())
        merge.process(Insert("X", 5), 0)
        merge.process(Insert("Y", 5), 1)  # different first element: new payload
        merge.process(Insert("Y", 5), 0)
        merge.process(Insert("X", 5), 1)
        assert merge.stats.inserts_out == 2
        assert {e.payload for e in merge.output.data_elements()} == {"X", "Y"}

    def test_hash_cleared_on_new_vs(self):
        merge = attach(LMergeR2())
        merge.process(Insert("X", 5), 0)
        merge.process(Insert("X", 7), 0)  # same payload, new Vs: genuinely new
        assert merge.stats.inserts_out == 2

    def test_memory_tracks_current_vs_payloads(self):
        merge = attach(LMergeR2())
        blob = "z" * 500
        merge.process(Insert((1, blob), 5), 0)
        merge.process(Insert((2, blob), 5), 0)
        with_two = merge.memory_bytes()
        assert with_two > 1000
        merge.process(Insert((3, blob), 9), 0)  # advances Vs, clears hash
        assert merge.memory_bytes() < with_two

    def test_adjust_rejected(self):
        merge = attach(LMergeR2())
        with pytest.raises(UnsupportedElementError):
            merge.process(Adjust("A", 1, 5, 9), 0)

    def test_grouped_aggregate_workload_equivalence(self):
        """Replicas emit per-group results at each window Vs in different
        orders; the merged output carries each exactly once."""
        import random

        base = []
        for window in range(25):
            groups = [(g, window + g) for g in range(4)]
            base.append((window * 10, groups))
        streams = []
        for seed in range(3):
            rng = random.Random(seed)
            elements = []
            for vs, groups in base:
                shuffled = groups[:]
                rng.shuffle(shuffled)
                for payload in shuffled:
                    elements.append(Insert(payload, vs, vs + 10))
                elements.append(Stable(vs + 1))
            elements.append(Stable(INFINITY))
            streams.append(PhysicalStream(elements))
        merge = LMergeR2()
        output = merge.merge(streams, schedule="round_robin")
        assert output.tdb() == streams[0].tdb()


class TestAttachDetachLifecycle:
    def test_double_attach_rejected(self):
        merge = LMergeR0()
        merge.attach(0)
        with pytest.raises(InputStateError):
            merge.attach(0)

    def test_detach_unknown_rejected(self):
        with pytest.raises(InputStateError):
            LMergeR0().detach(0)

    def test_joining_guarantee(self):
        merge = LMergeR0()
        merge.attach(0)
        merge.attach(1, guarantee_from=100)
        assert merge.is_joined(0)
        assert not merge.is_joined(1)
        merge.process(Stable(100), 0)
        assert merge.is_joined(1)

    def test_leading_stream(self):
        merge = attach(LMergeR0(), n=3)
        assert merge.leading_stream() is None  # nobody has punctuated yet
        merge.process(Stable(5), 1)
        merge.process(Stable(9), 2)
        assert merge.leading_stream() == 2
