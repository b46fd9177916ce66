"""Batched hot path: ``process_batch`` must match ``process`` exactly.

The batched execution mode (slotted-dispatch runs, per-variant fast
paths, single-descent index lookups) is pure mechanism — it must not
change a single output element or statistic.  Hypothesis draws oracle
scenarios (``oracle.py``: divergent replicas, a roster script, a
batch-size schedule) for every LMerge variant and compares each ingest
path against the per-element one element for element, MergeStats
included.

Stable coalescing (``coalesce_stables=True``) intentionally relaxes this
to *logical* (TDB) equivalence — intermediate punctuation is absorbed —
so its tests assert TDB equality and a never-larger stable count instead.
"""

import random
from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.checked import MergeCheck, PropertyViolationError
from repro.engine.operator import CollectorSink
from repro.engine.runtime import QueuedEdge, Runtime
from repro.lmerge.base import interleave, interleave_batches
from repro.lmerge.counting import CountingMerge
from repro.lmerge.r0 import LMergeR0
from repro.lmerge.r1 import LMergeR1
from repro.lmerge.r2 import LMergeR2
from repro.lmerge.r3 import LMergeR3
from repro.temporal.elements import Adjust, Insert, Stable
from repro.temporal.time import INFINITY

from conftest import small_stream
from oracle import (
    FEEDS,
    SHAPES,
    VARIANTS,
    Shape,
    apply,
    check,
    scenario,
    script,
)

ORDERED_VARIANTS = {
    "LMR0": LMergeR0,
    "LMR1": LMergeR1,
    "LMR2": LMergeR2,
}

SCHEDULES = ["round_robin", "sequential", "random"]
EXACT = ("process", "batch", "columns")


class TestExactEquivalence:
    """process_batch == process, element for element, stats included."""

    @settings(max_examples=6)
    @given(
        name=st.sampled_from(sorted(VARIANTS)),
        seed=st.integers(0, 10**6),
        roster=st.booleans(),
        batch_size=st.integers(1, 97),
    )
    def test_identical_output_and_stats(self, name, seed, roster, batch_size):
        check(name, "divergent", seed, roster=roster, batches=(batch_size,),
              paths=("process", "batch"), policies=("none",))

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_merge_batched_driver(self, name, schedule):
        """The offline drivers agree under every schedule."""
        streams = scenario(name, seed=5).replicas
        per, bat, again = (VARIANTS[name]() for _ in range(3))
        out_per = per.merge(streams, schedule="sequential")
        out_bat = bat.merge_batched(streams, schedule="sequential")
        assert (list(out_per), per.stats) == (list(out_bat), bat.stats)
        # Other schedules chunk more coarsely — still a valid
        # interleaving, so the outputs stay logically equivalent.
        out_again = again.merge_batched(streams, schedule=schedule)
        assert out_again.tdb() == out_per.tdb()

    @pytest.mark.parametrize("coalesce", [False, True])
    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_wire_decoded_columns_match_batch(self, name, coalesce):
        """process_columns is a boundary decode plus process_batch: same
        output, same stats, for every variant — over an empty batch and
        a tail with every kind the variant takes, ``inf`` included."""
        replicas = [  # the tail, not the replicas, ends at Stable(inf)
            [e for e in replica if e != Stable(INFINITY)]
            for replica in scenario(name, seed=11, replicas=3).replicas
        ]
        steps = script(replicas, 11, roster=False)
        steps.insert(4, ("feed", 0, []))
        end = 1 + max(
            e.vc if e.__class__ is Stable else e.vs for r in replicas for e in r
        )
        tail = [Insert(("tail",), end, INFINITY), Stable(end), Stable(INFINITY)]
        if name not in ORDERED_VARIANTS:
            tail.insert(1, Adjust(("tail",), end, INFINITY, end + 5))
        steps += [("feed", sid, tail) for sid in range(3)]
        batch = lambda merge, chunk, sid: merge.process_batch(
            chunk, sid, coalesce_stables=coalesce
        )
        merges = []
        for feed in (batch, FEEDS["coalesce" if coalesce else "columns"]):
            merges.append(VARIANTS[name]())
            for step in steps:
                apply(merges[-1], step, feed, None)
        assert list(merges[1].output) == list(merges[0].output)
        assert merges[1].stats == merges[0].stats
        assert merges[0].stats.elements_in == sum(
            len(step[2]) for step in steps if step[0] in ("feed", "stable")
        )
        assert merges[0].max_stable == INFINITY

    def test_counting_merge_uses_generic_path(self):
        """Variants without a fast path fall back to the per-element
        loop inside process_batch."""
        check("LMR0", Shape(stable_keep=1.0), 3, make=CountingMerge,
              roster=False, paths=("process", "batch"), policies=("none",))


class _CountingRun(Sequence):
    """A run that counts the elements read from it (a slice reads its
    length)."""

    def __init__(self, items):
        self.items = items
        self.reads = 0

    def __len__(self):
        return len(self.items)

    def __getitem__(self, index):
        part = self.items[index]
        self.reads += len(part) if isinstance(index, slice) else 1
        return part


class TestOrderedRunKernels:
    """The R0-R2 insert kernels decide a run by zone (stale prefix, tie
    zone, fresh suffix); every ingest path must still agree with
    ``process`` element for element, state included."""

    @settings(max_examples=12)
    @given(
        name=st.sampled_from(sorted(ORDERED_VARIANTS)),
        shape=st.sampled_from(sorted(SHAPES)),
        seed=st.integers(0, 10**6),
        batch_size=st.sampled_from([1, 2, 7, 64]),
    )
    def test_paths_agree_after_every_batch(self, name, shape, seed, batch_size):
        check(name, shape, seed, batches=(batch_size,), paths=EXACT,
              policies=("none",))

    @pytest.mark.parametrize("name", sorted(ORDERED_VARIANTS))
    def test_run_costs_its_decisions_not_its_elements(self, name):
        """A wholly stale run is decided from its last element; a run
        with a fresh suffix reads O(lg b) elements plus the suffix."""
        size, suffix = 4097, 10
        head = [Insert(("p", i), i, i + 5) for i in range(size)]
        tail = [Insert(("p", i), i, i + 5) for i in range(size, size + suffix)]
        for _ in range(2):  # the counts repeat exactly
            merge = ORDERED_VARIANTS[name]()
            merge.attach(0)
            merge.attach(1)
            merge.process_batch(head, 0)
            state = merge._inputs[1]
            stale = _CountingRun(head[:-1])  # 4,096 elements behind MaxVs
            merge._insert_batch(stale, 1, state, False)
            assert stale.reads <= 2
            mixed = _CountingRun(head[suffix:] + tail)
            merge._insert_batch(mixed, 1, state, False)
            assert mixed.reads <= suffix + 4 * size.bit_length()
            assert list(merge.output) == head + tail
            assert merge.stats.inserts_in == 3 * size - 1

    @pytest.mark.parametrize("name", sorted(ORDERED_VARIANTS))
    def test_out_of_contract_runs_stay_safe(self, name):
        """Unsorted runs break the restriction: the kernel must not raise
        or invent output, and the frontier registers stay monotone — the
        violation itself is named by the property checker, not by the
        merge."""
        rng = random.Random(20260926)
        cls = ORDERED_VARIANTS[name]
        for _ in range(50):
            merge = cls()
            delivered = [[], []]
            everything = []
            for sid in (0, 1):
                merge.attach(sid)
            for _ in range(12):
                sid = rng.randrange(2)
                run = [
                    Insert((rng.randrange(4),), rng.randrange(60), 100)
                    if rng.random() < 0.9
                    else Stable(rng.randrange(60))
                    for _ in range(rng.randrange(1, 20))
                ]
                before = (merge._max_vs, merge.max_stable)
                merge.process_batch(run, sid)
                assert merge._max_vs >= before[0]
                assert merge.max_stable >= before[1]
                delivered[sid].extend(run)
                everything.extend(e for e in run if e.__class__ is Insert)
            remaining = iter(everything)
            for element in merge.output:
                if element.__class__ is Insert:
                    # Output is a subsequence of what was delivered.
                    assert any(element is given for given in remaining)
            check = MergeCheck.for_restriction(cls.restriction, 2)
            with pytest.raises(PropertyViolationError):
                for sid in (0, 1):
                    check.wrap(sid, delivered[sid])

    def test_r2_accepts_unhashable_payloads_like_r3(self):
        """A dict payload used to abort LMR2's batch half-applied; it is
        keyed by PayloadKey's (type name, repr) fallback instead."""
        run = [
            Insert({"a": 1}, 1, 5),
            Insert({"a": 2}, 1, 5),
            Insert({"b": 1}, 2, 6),
            Stable(3),
        ]
        shuffled = [run[1], run[0], run[2], run[3]]
        results = []
        for cls, feed in (
            (LMergeR2, "process_batch"),
            (LMergeR2, "process"),
            (LMergeR3, "process_batch"),
        ):
            merge = cls()
            merge.attach(0)
            merge.attach(1)
            for sid, elements in ((0, run), (1, shuffled)):
                if feed == "process":
                    for element in elements:
                        merge.process(element, sid)
                else:
                    merge.process_batch(elements, sid)
            assert merge.stats.inserts_in == 6
            assert merge.stats.inserts_out == 3
            results.append(
                (
                    sorted(
                        (e.vs, repr(e.payload), e.ve)
                        for e in merge.output
                        if e.__class__ is Insert
                    ),
                    merge.max_stable,
                )
            )
        assert results[0] == results[1] == results[2]


class TestCoalescedStables:
    """coalesce_stables=True: logical equivalence, fewer stables out."""

    @settings(max_examples=10)
    @given(name=st.sampled_from(sorted(VARIANTS)), seed=st.integers(0, 10**6))
    def test_tdb_equivalent(self, name, seed):
        check(name, "divergent", seed, paths=("process", "coalesce"),
              policies=("none",))

    def test_coalesced_run_advances_once(self):
        """A run of stables with no data between them becomes one
        frontier advance at the maximum Vc."""
        merge = LMergeR3()
        merge.attach(0)
        merge.process_batch(
            [Insert("a", 1, 10), Stable(2), Stable(5), Stable(8)],
            0,
            coalesce_stables=True,
        )
        assert merge.max_stable == 8
        assert merge.stats.stables_in == 3
        assert merge.stats.stables_out == 1


class TestProcessBatchContract:
    def test_unattached_stream_rejected(self):
        merge = LMergeR3()
        with pytest.raises(Exception, match="unattached"):
            merge.process_batch([Insert("a", 1)], 99)

    def test_non_element_rejected(self):
        merge = LMergeR3()
        merge.attach(0)
        with pytest.raises(TypeError, match="not a stream element"):
            merge.process_batch([Insert("a", 1), object()], 0)

    def test_adjust_rejected_under_r0(self):
        merge = LMergeR0()
        merge.attach(0)
        with pytest.raises(TypeError, match="does not support adjust"):
            merge.process_batch([Adjust("a", 1, 5, 7)], 0)
        # The offending element was counted, mirroring process().
        assert merge.stats.adjusts_in == 1

    def test_empty_batch_is_noop(self):
        merge = LMergeR3()
        merge.attach(0)
        merge.process_batch([], 0)
        assert merge.stats.elements_in == 0

    def test_interleave_batches_flattens_to_interleave(self):
        """For the sequential schedule the chunked interleaving flattens
        to exactly the per-element interleaving."""
        streams = scenario("LMR3+", seed=7).replicas
        flat = [
            (element, sid)
            for chunk, sid in interleave_batches(streams, "sequential", 0, 13)
            for element in chunk
        ]
        assert flat == list(interleave(streams, "sequential", 0))

    def test_interleave_batches_preserves_per_stream_order(self):
        streams = scenario("LMR3+", seed=9).replicas
        for schedule in SCHEDULES:
            seen = {i: [] for i in range(len(streams))}
            for chunk, sid in interleave_batches(streams, schedule, 4, 7):
                seen[sid].extend(chunk)
            for index, stream in enumerate(streams):
                assert seen[index] == list(stream)

    def test_interleave_batches_rejects_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            list(interleave_batches([], "sequential", 0, 0))


class TestLeadingStreamCache:
    def test_leader_tracks_max_stable_point(self):
        merge = LMergeR3()
        for index in range(3):
            merge.attach(index)
        assert merge.leading_stream() is None
        merge.process(Stable(5), 1)
        assert merge.leading_stream() == 1
        merge.process(Stable(9), 2)
        assert merge.leading_stream() == 2
        merge.process(Stable(7), 0)  # behind the leader: no change
        assert merge.leading_stream() == 2

    def test_tie_keeps_first_to_reach(self):
        merge = LMergeR3()
        merge.attach(0)
        merge.attach(1)
        merge.process(Stable(5), 1)
        merge.process(Stable(5), 0)
        assert merge.leading_stream() == 1

    def test_leader_detach_rescans(self):
        merge = LMergeR3()
        for index in range(3):
            merge.attach(index)
        merge.process(Stable(5), 0)
        merge.process(Stable(9), 1)
        merge.detach(1)
        assert merge.leading_stream() == 0
        merge.detach(0)
        assert merge.leading_stream() is None

    def test_batch_path_maintains_cache(self):
        merge = LMergeR3()
        merge.attach(0)
        merge.attach(1)
        merge.process_batch([Stable(3), Stable(6)], 1, coalesce_stables=True)
        assert merge.leading_stream() == 1
        assert merge.input_stable(1) == 6


class TestRuntimeBatchDrain:
    def _pipeline(self, count=120, capacity=None):
        from repro.operators.select import Filter
        from repro.operators.source import StreamSource

        stream = small_stream(count=count, seed=61)
        source = StreamSource(stream)
        flt = Filter(lambda p: True)
        sink = CollectorSink()
        runtime = Runtime(batch=16)
        runtime.connect(source, flt)
        runtime.connect(flt, sink, capacity=capacity)
        source.play()
        return runtime, stream, sink

    def test_batch_drain_matches_per_element(self):
        runtime, stream, sink = self._pipeline()
        runtime.run()
        assert list(sink.stream) == list(stream)

    def test_sliced_backpressure_respects_capacity(self):
        runtime, stream, sink = self._pipeline(capacity=5)
        runtime.run()
        assert list(sink.stream) == list(stream)
        bounded = [edge for edge in runtime.edges if edge.capacity is not None]
        assert bounded and all(
            edge.peak_depth <= edge.capacity for edge in bounded
        )

    def test_queued_edge_receive_batch_enforces_capacity(self):
        from repro.engine.runtime import QueueFullError

        edge = QueuedEdge(CollectorSink(), capacity=3)
        edge.receive_batch([Insert("a", 1), Insert("b", 2)])
        assert edge.depth == 2
        with pytest.raises(QueueFullError):
            edge.receive_batch([Insert("c", 3), Insert("d", 4)])

    def test_drain_delivers_one_slice(self):
        sink = CollectorSink()
        edge = QueuedEdge(sink)
        edge.receive_batch([Insert(i, i + 1) for i in range(10)])
        assert edge.drain(4) == 4
        assert [e.payload for e in sink.stream] == [0, 1, 2, 3]
        assert edge.depth == 6

    def test_output_room_probes_bounded_queues(self):
        flt_sink = CollectorSink()
        edge = QueuedEdge(flt_sink, capacity=2)
        upstream = CollectorSink()  # any operator works as a producer
        upstream.subscribe(edge)
        assert upstream.output_room() == 2
        edge.receive(Insert("a", 1))
        assert upstream.output_room() == 1
        assert upstream.has_output_room()
        edge.receive(Insert("b", 2))
        assert upstream.output_room() == 0
        assert not upstream.has_output_room()

    def test_subscribers_property_is_public_snapshot(self):
        a = CollectorSink()
        b = CollectorSink()
        a.subscribe(b, port=1)
        assert a.subscribers == ((b, 1),)
        a.unsubscribe(b)
        assert a.subscribers == ()
        assert b.upstreams == ()


class TestFragmentAdapterBatch:
    def test_receive_batch_feeds_merge(self):
        from repro.ha.hierarchy import _FragmentAdapter

        merge = LMergeR3()
        merge.attach(0)
        adapter = _FragmentAdapter(merge, 0)
        adapter.receive_batch([Insert("a", 1, 10), Stable(5)])
        assert merge.stats.inserts_in == 1
        assert merge.stats.stables_in == 1

    def test_receive_batch_after_failure_drops(self):
        from repro.ha.hierarchy import _FragmentAdapter

        merge = LMergeR3()
        merge.attach(0)
        adapter = _FragmentAdapter(merge, 0)
        merge.detach(0)
        adapter.receive_batch([Insert("a", 1, 10)])
        assert merge.stats.inserts_in == 0
