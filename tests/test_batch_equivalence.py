"""Batched hot path: ``process_batch`` must match ``process`` exactly.

The batched execution mode (slotted-dispatch runs, per-variant fast
paths, single-descent index lookups) is pure mechanism — it must not
change a single output element or statistic.  Hypothesis drives random
workloads through random chunkings, schedules, and input counts for every
LMerge variant, comparing against the per-element path element for
element, MergeStats included.

Stable coalescing (``coalesce_stables=True``) intentionally relaxes this
to *logical* (TDB) equivalence — intermediate punctuation is absorbed —
so its tests assert TDB equality and a never-larger stable count instead.
"""

import random
from collections.abc import Sequence
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.checked import MergeCheck, PropertyViolationError
from repro.engine.columnar import ColumnBatch
from repro.engine.operator import CollectorSink
from repro.engine.runtime import QueuedEdge, Runtime
from repro.lmerge.base import interleave, interleave_batches
from repro.lmerge.counting import CountingMerge
from repro.lmerge.r0 import LMergeR0
from repro.lmerge.r1 import LMergeR1
from repro.lmerge.r2 import LMergeR2
from repro.lmerge.r3 import LMergeR3
from repro.lmerge.r3_naive import LMergeR3Naive
from repro.lmerge.r4 import LMergeR4
from repro.streams.divergence import diverge
from repro.streams.generator import GeneratorConfig, StreamGenerator
from repro.temporal.elements import Adjust, Insert, Stable
from repro.temporal.time import INFINITY

from conftest import small_stream

ORDERED_VARIANTS = {
    "LMR0": LMergeR0,
    "LMR1": LMergeR1,
    "LMR2": LMergeR2,
}
GENERAL_VARIANTS = {
    "LMR3+": LMergeR3,
    "LMR3-": LMergeR3Naive,
    "LMR4": LMergeR4,
}
ALL_VARIANTS = {**ORDERED_VARIANTS, **GENERAL_VARIANTS}

SCHEDULES = ["round_robin", "sequential", "random"]


def _ordered_streams(seed, n):
    config = GeneratorConfig(
        count=150,
        seed=seed,
        disorder=0.0,
        min_gap=1,
        stable_freq=0.06,
        payload_blob_bytes=2,
        event_duration=60,
    )
    return [StreamGenerator(config).generate()] * n


def _general_streams(seed, n):
    reference = StreamGenerator(
        GeneratorConfig(
            count=150,
            seed=seed,
            disorder=0.25,
            stable_freq=0.08,
            payload_blob_bytes=2,
            event_duration=60,
        )
    ).generate()
    return [
        diverge(reference, seed=seed + i, speculate_fraction=0.3)
        for i in range(n)
    ]


def _streams_for(name, seed, n):
    if name in ORDERED_VARIANTS:
        return _ordered_streams(seed, n)
    return _general_streams(seed, n)


def _run_per_element(variant_cls, chunks, n_inputs):
    merge = variant_cls()
    for index in range(n_inputs):
        merge.attach(index)
    for chunk, stream_id in chunks:
        for element in chunk:
            merge.process(element, stream_id)
    return merge


def _run_batched(variant_cls, chunks, n_inputs, coalesce=False):
    merge = variant_cls()
    for index in range(n_inputs):
        merge.attach(index)
    for chunk, stream_id in chunks:
        merge.process_batch(chunk, stream_id, coalesce_stables=coalesce)
    return merge


def _feeds(coalesce=False):
    """The ingest paths by mode.  ``"columns"`` hands over what a worker
    gets off the ring: a wire-decoded batch, which holds no element
    objects and whose timestamps went through the ``'q'``/``'d'`` column
    typecodes (``5.0`` may come back for ``5``, ``inf`` natively)."""
    return {
        "element": lambda m, chunk, sid: [m.process(e, sid) for e in chunk],
        "batch": lambda m, chunk, sid: m.process_batch(
            chunk, sid, coalesce_stables=coalesce
        ),
        "columns": lambda m, chunk, sid: m.process_columns(
            ColumnBatch.decode(ColumnBatch.from_elements(chunk).encode()),
            sid,
            coalesce_stables=coalesce,
        ),
    }


class TestExactEquivalence:
    """process_batch == process, element for element, stats included."""

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(sorted(ALL_VARIANTS)),
        seed=st.integers(0, 10**6),
        n_inputs=st.integers(1, 4),
        schedule=st.sampled_from(SCHEDULES),
        batch_size=st.integers(1, 97),
    )
    def test_identical_output_and_stats(
        self, name, seed, n_inputs, schedule, batch_size
    ):
        streams = _streams_for(name, seed % 19, n_inputs)
        chunks = list(
            interleave_batches(streams, schedule, seed, batch_size)
        )
        per = _run_per_element(ALL_VARIANTS[name], chunks, n_inputs)
        bat = _run_batched(ALL_VARIANTS[name], chunks, n_inputs)
        assert list(per.output) == list(bat.output)
        assert per.stats == bat.stats

    @pytest.mark.parametrize("name", sorted(ALL_VARIANTS))
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_merge_batched_driver(self, name, schedule):
        """The offline drivers agree under every schedule."""
        streams = _streams_for(name, 5, 3)
        per = ALL_VARIANTS[name]()
        out_per = per.merge(streams, schedule="sequential")
        bat = ALL_VARIANTS[name]()
        out_bat = bat.merge_batched(streams, schedule="sequential")
        assert list(out_per) == list(out_bat)
        assert per.stats == bat.stats
        # Other schedules chunk more coarsely — still a valid
        # interleaving, so the outputs stay logically equivalent.
        again = ALL_VARIANTS[name]()
        out_again = again.merge_batched(streams, schedule=schedule)
        assert out_again.tdb() == out_per.tdb()

    @pytest.mark.parametrize("coalesce", [False, True])
    @pytest.mark.parametrize("name", sorted(ALL_VARIANTS))
    def test_wire_decoded_columns_match_batch(self, name, coalesce):
        """process_columns is a boundary decode plus process_batch: same
        output, same stats, for every variant — over an empty batch and
        one with every kind the variant takes, ``inf`` included."""
        n_inputs = 3
        streams = _streams_for(name, 11, n_inputs)
        chunks = list(interleave_batches(streams, "round_robin", 0, 24))
        chunks.insert(1, ([], 0))
        end = max(e.vs for e in streams[0] if e.__class__ is Insert) + 1
        tail = [Insert(("tail",), end, INFINITY), Stable(end), Stable(INFINITY)]
        if name in GENERAL_VARIANTS:
            tail.insert(1, Adjust(("tail",), end, INFINITY, end + 5))
        chunks.extend((tail, sid) for sid in range(n_inputs))
        feeds = _feeds(coalesce)
        merges = {}
        for mode in ("batch", "columns"):
            merges[mode] = merge = ALL_VARIANTS[name]()
            for sid in range(n_inputs):
                merge.attach(sid)
            for chunk, sid in chunks:
                feeds[mode](merge, chunk, sid)
        assert list(merges["columns"].output) == list(merges["batch"].output)
        assert merges["columns"].stats == merges["batch"].stats
        assert merges["batch"].stats.elements_in == sum(
            len(chunk) for chunk, _ in chunks
        )
        assert merges["batch"].max_stable == INFINITY

    def test_counting_merge_uses_generic_path(self):
        """Variants without a fast path fall back to the per-element
        loop inside process_batch."""
        streams = _ordered_streams(3, 2)
        chunks = list(interleave_batches(streams, "round_robin", 0, 16))
        per = _run_per_element(CountingMerge, chunks, 2)
        bat = _run_batched(CountingMerge, chunks, 2)
        assert list(per.output) == list(bat.output)
        assert per.stats == bat.stats


def _tie_heavy_replicas(name, seed, n):
    """Legal replicas for variant *name* with many same-Vs groups (R0:
    none — strictly increasing Vs is its restriction).  R2's replicas
    order each same-Vs group differently."""
    base = list(
        StreamGenerator(
            GeneratorConfig(
                count=120,
                seed=seed,
                disorder=0.0,
                min_gap=1 if name == "LMR0" else 0,
                max_gap=1,
                stable_freq=0.05,
                payload_blob_bytes=2,
                event_duration=40,
            )
        ).generate()
    )
    if name != "LMR2":
        return [base] * n
    replicas = []
    for index in range(n):
        rng = random.Random(seed * 7 + index)
        replica = []
        # Consecutive inserts sharing a Vs (a stable has none) may swap.
        for _, group in groupby(base, key=lambda e: getattr(e, "vs", None)):
            group = list(group)
            rng.shuffle(group)
            replica.extend(group)
        replicas.append(replica)
    return replicas


def _kernel_script(replicas, batch_size, lag, attach_at, detach_at, snapshot_at):
    """Deliveries of three replicas — the third trailing by *lag* batches —
    plus a late-attached fourth that replays from the start, the leader's
    detach, and a snapshot/restore, at the given fractions of the way."""
    chunks = [
        [r[i : i + batch_size] for i in range(0, len(r), batch_size)]
        for r in replicas
    ]
    ops = []
    for k in range(len(chunks[0]) + lag):
        for sid in (0, 1):
            if k < len(chunks[sid]):
                ops.append(("batch", chunks[sid][k], sid))
        if 0 <= k - lag < len(chunks[2]):
            ops.append(("batch", chunks[2][k - lag], 2))
    total = len(ops)
    late = iter(chunks[3])
    script = []
    for index, op in enumerate(ops):
        if index == int(attach_at * total):
            script.append(("attach", 3))
        if index == int(detach_at * total):
            script.append(("detach", 0))
        if index == int(snapshot_at * total):
            script.append(("snapshot",))
        script.append(op)
        if index >= int(attach_at * total):
            script.extend(("batch", chunk, 3) for _, chunk in zip(range(2), late))
    return script


def _kernel_state(merge):
    return (
        merge.stats,
        merge.max_stable,
        merge._max_vs,
        getattr(merge, "_same_vs_count", None),
        getattr(merge, "_hash", None),
        getattr(merge, "_hash_bytes", None),
    )


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

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(ORDERED_VARIANTS)),
        seed=st.integers(0, 10**6),
        batch_size=st.sampled_from([1, 2, 7, 64]),
        lag=st.integers(0, 12),
        attach_at=st.floats(0.0, 1.0),
        detach_at=st.floats(0.0, 1.0),
        snapshot_at=st.floats(0.0, 1.0),
    )
    def test_paths_agree_after_every_batch(
        self, name, seed, batch_size, lag, attach_at, detach_at, snapshot_at
    ):
        cls = ORDERED_VARIANTS[name]
        script = _kernel_script(
            _tie_heavy_replicas(name, seed, 4),
            batch_size, lag, attach_at, detach_at, snapshot_at,
        )
        feeds = _feeds()
        outputs = {mode: [] for mode in feeds}
        merges = {}
        for mode in feeds:
            merges[mode] = cls(sink=outputs[mode].append)
            for sid in range(3):
                merges[mode].attach(sid)
        seen = 0
        for op in script:
            for mode, feed in feeds.items():
                merge = merges[mode]
                if op[0] == "batch":
                    if merge.is_attached(op[2]):
                        feed(merge, op[1], op[2])
                elif op[0] == "snapshot":
                    merges[mode] = cls(sink=outputs[mode].append)
                    merges[mode].restore_state(merge.snapshot_state())
                else:
                    getattr(merge, op[0])(op[1])
            reference = outputs["element"][seen:]
            for mode in ("batch", "columns"):
                assert outputs[mode][seen:] == reference, (mode, op)
                assert _kernel_state(merges[mode]) == _kernel_state(
                    merges["element"]
                ), (mode, op)
            seen = len(outputs["element"])
        assert seen > 0

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

    @settings(max_examples=15, deadline=None)
    @given(
        name=st.sampled_from(sorted(ALL_VARIANTS)),
        seed=st.integers(0, 10**6),
        schedule=st.sampled_from(SCHEDULES),
    )
    def test_tdb_equivalent(self, name, seed, schedule):
        streams = _streams_for(name, seed % 19, 3)
        chunks = list(interleave_batches(streams, schedule, seed, 32))
        per = _run_per_element(ALL_VARIANTS[name], chunks, 3)
        bat = _run_batched(ALL_VARIANTS[name], chunks, 3, coalesce=True)
        assert per.output.tdb() == bat.output.tdb()
        assert bat.stats.stables_out <= per.stats.stables_out
        assert bat.stats.stables_in == per.stats.stables_in

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
        streams = _general_streams(7, 3)
        flat = [
            (element, sid)
            for chunk, sid in interleave_batches(streams, "sequential", 0, 13)
            for element in chunk
        ]
        assert flat == list(interleave(streams, "sequential", 0))

    def test_interleave_batches_preserves_per_stream_order(self):
        streams = _general_streams(9, 3)
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
