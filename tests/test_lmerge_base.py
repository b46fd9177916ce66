"""Tests for shared LMerge machinery: interleaving, stats, sinks,
feedback fan-out."""

import pytest

from repro.lmerge.base import LMergeBase, MergeStats, interleave_batches
from repro.lmerge.r0 import LMergeR0
from repro.lmerge.r3 import LMergeR3
from repro.streams.stream import PhysicalStream
from repro.temporal.elements import Adjust, Insert, Stable
from repro.temporal.time import INFINITY


def interleave(streams, schedule, seed=0):
    """The element-by-element interleaving: chunks of one, flattened."""
    return [
        (element, sid)
        for chunk, sid in interleave_batches(streams, schedule, seed, 1)
        for element in chunk
    ]


def streams(*lengths):
    return [
        PhysicalStream([Insert((i, k), k + 1, k + 2) for k in range(n)])
        for i, n in enumerate(lengths)
    ]


class TestInterleave:
    def test_round_robin_alternates(self):
        a, b = streams(3, 3)
        order = [sid for _, sid in interleave([a, b], "round_robin")]
        assert order == [0, 1, 0, 1, 0, 1]

    def test_round_robin_uneven(self):
        a, b = streams(1, 3)
        order = [sid for _, sid in interleave([a, b], "round_robin")]
        assert order == [0, 1, 1, 1]

    def test_sequential(self):
        a, b = streams(2, 2)
        order = [sid for _, sid in interleave([a, b], "sequential")]
        assert order == [0, 0, 1, 1]

    def test_random_deterministic_by_seed(self):
        a, b = streams(10, 10)
        first = [sid for _, sid in interleave([a, b], "random", seed=3)]
        second = [sid for _, sid in interleave([a, b], "random", seed=3)]
        assert first == second

    def test_random_covers_everything(self):
        a, b = streams(5, 7)
        elements = list(interleave([a, b], "random", seed=1))
        assert len(elements) == 12

    def test_unknown_schedule_rejected(self):
        a, b = streams(1, 1)
        with pytest.raises(ValueError):
            list(interleave([a, b], "zigzag"))


class TestMergeStats:
    def test_totals(self):
        stats = MergeStats(inserts_in=3, adjusts_in=2, stables_in=1)
        assert stats.elements_in == 6
        assert stats.elements_out == 0

    def test_chattiness_is_adjusts_out(self):
        stats = MergeStats(adjusts_out=7)
        assert stats.chattiness == 7

    def test_merge_accumulates_in_place(self):
        a = MergeStats(inserts_in=3, adjusts_out=2, stables_out=1)
        b = MergeStats(inserts_in=4, adjusts_in=5, stables_out=6)
        result = a.merge(b)
        assert result is a
        assert a.inserts_in == 7
        assert a.adjusts_in == 5
        assert a.adjusts_out == 2
        assert a.stables_out == 7
        # The source record is untouched.
        assert b.inserts_in == 4

    def test_add_is_pure(self):
        a = MergeStats(inserts_in=1, inserts_out=2)
        b = MergeStats(inserts_in=10, stables_in=3)
        total = a + b
        assert (total.inserts_in, total.inserts_out, total.stables_in) == (11, 2, 3)
        assert a.inserts_in == 1 and b.inserts_in == 10

    def test_sum_over_shards(self):
        parts = [MergeStats(inserts_in=i, adjusts_out=1) for i in range(4)]
        total = sum(parts)
        assert total.inserts_in == 6
        assert total.adjusts_out == 4
        assert all(p.adjusts_out == 1 for p in parts)

    def test_merge_stats_helper(self):
        parts = [MergeStats(stables_in=2), MergeStats(stables_in=5)]
        assert sum(parts, MergeStats()).stables_in == 7
        assert sum([], MergeStats()).elements_in == 0

    def test_counting_by_processing(self):
        merge = LMergeR3()
        merge.attach(0)
        merge.process(Insert("a", 1, 5), 0)
        merge.process(Adjust("a", 1, 5, 9), 0)
        merge.process(Stable(INFINITY), 0)
        assert merge.stats.inserts_in == 1
        assert merge.stats.adjusts_in == 1
        assert merge.stats.stables_in == 1


class TestSink:
    def test_sink_receives_emitted_elements(self):
        seen = []
        merge = LMergeR0(sink=seen.append)
        merge.attach(0)
        merge.process(Insert("a", 1, 5), 0)
        merge.process(Stable(INFINITY), 0)
        assert seen == [Insert("a", 1, 5), Stable(INFINITY)]

    def test_output_stream_always_recorded(self):
        merge = LMergeR0(sink=lambda e: None)
        merge.attach(0)
        merge.process(Insert("a", 1, 5), 0)
        assert len(merge.output) == 1


class TestFeedbackFanOut:
    def test_only_lagging_inputs_signalled(self):
        merge = LMergeR3()
        for stream_id in range(3):
            merge.attach(stream_id)
        signals = []
        merge.add_feedback_listener(lambda sid, t: signals.append((sid, t)))
        merge.process(Stable(10), 0)
        merge.process(Stable(10), 1)  # catches up; no output stable change
        merge.process(Stable(20), 1)
        lagging_at_20 = {sid for sid, t in signals if t == 20}
        assert lagging_at_20 == {0, 2}

    def test_multiple_listeners(self):
        merge = LMergeR3()
        merge.attach(0)
        merge.attach(1)
        first, second = [], []
        merge.add_feedback_listener(lambda sid, t: first.append(sid))
        merge.add_feedback_listener(lambda sid, t: second.append(sid))
        merge.process(Stable(5), 0)
        assert first == second == [1]


class TestMergeDriver:
    def test_merge_attaches_automatically(self):
        a, b = streams(3, 3)
        merge = LMergeR3()
        merge.merge([a, b])
        assert merge.num_inputs == 2

    def test_merge_reuses_existing_attachments(self):
        a, b = streams(3, 3)
        merge = LMergeR3()
        merge.attach(0)
        merge.merge([a, b])  # must not raise "already attached"
        assert merge.num_inputs == 2


class TestAbstractBase:
    def test_handlers_must_be_implemented(self):
        merge = LMergeBase()
        merge.attach(0)
        with pytest.raises(NotImplementedError):
            merge.process(Insert("a", 1), 0)
        with pytest.raises(NotImplementedError):
            merge.process(Stable(1), 0)
        with pytest.raises(NotImplementedError):
            merge.memory_bytes()

    def test_non_element_rejected(self):
        merge = LMergeR0()
        merge.attach(0)
        with pytest.raises(TypeError):
            merge.process("junk", 0)
