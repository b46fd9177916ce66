"""ParallelRuntime: backend equivalence, backpressure, error paths."""

import pickle
import threading

import pytest

from repro.engine.parallel import (
    BACKENDS,
    QUEUE_CAPACITY,
    ParallelRuntime,
    ShardError,
    merge_factory,
)
from repro.lmerge.r3 import LMergeR3
from repro.temporal.elements import Adjust, Insert, Stable
from repro.temporal.time import INFINITY

from conftest import divergent_inputs, small_stream


def drive(runtime, inputs):
    """Feed whole streams as one envelope per stream, gather all output."""
    outputs = {shard: [] for shard in range(runtime.num_shards)}
    for stream_id, stream in enumerate(inputs):
        runtime.broadcast_attach(stream_id)
    for stream_id, stream in enumerate(inputs):
        runtime.submit(stream_id % runtime.num_shards, stream_id, list(stream))
        for shard, elements in runtime.poll():
            outputs[shard].extend(elements)
    stats = runtime.close()
    for shard, elements in runtime.poll():
        outputs[shard].extend(elements)
    return outputs, stats


class TestElementPickling:
    """The process backend ships pickled envelopes; the frozen __slots__
    elements must round-trip."""

    @pytest.mark.parametrize(
        "element",
        [
            Insert(("p", 1), 3, 9),
            Insert("x", 1),
            Adjust(("p", 1), 3, 9, 12),
            Stable(7),
            Stable(INFINITY),
        ],
    )
    def test_round_trip(self, element):
        clone = pickle.loads(pickle.dumps(element))
        assert clone == element
        assert type(clone) is type(element)

    def test_batch_round_trip(self):
        batch = list(small_stream(count=50))
        assert pickle.loads(pickle.dumps(batch)) == batch


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackends:
    def test_single_shard_matches_plain_merge(self, backend):
        reference = small_stream(count=200, seed=31)
        inputs = divergent_inputs(reference, n=2)
        runtime = ParallelRuntime(
            merge_factory(LMergeR3), num_shards=1, backend=backend
        ).start()
        outputs, stats = drive(runtime, inputs)

        plain = LMergeR3()
        plain_out = plain.merge(inputs, schedule="sequential")
        merged = outputs[0]
        # One shard, whole streams sequentially: identical elements.
        assert merged == list(plain_out)
        assert stats[0].elements_out == plain.stats.elements_out

    def test_stats_come_back_per_shard(self, backend):
        reference = small_stream(count=120, seed=7)
        runtime = ParallelRuntime(
            merge_factory(LMergeR3), num_shards=2, backend=backend
        ).start()
        runtime.broadcast_attach(0)
        runtime.submit(0, 0, list(reference))
        runtime.submit(1, 0, list(reference))
        stats = runtime.close()
        assert len(stats) == 2
        assert all(s.elements_in == len(reference) for s in stats)

    def test_close_is_idempotent(self, backend):
        runtime = ParallelRuntime(
            merge_factory(LMergeR3), num_shards=2, backend=backend
        ).start()
        runtime.broadcast_attach(0)
        first = runtime.close()
        assert runtime.close() is first

    def test_submit_after_close_rejected(self, backend):
        runtime = ParallelRuntime(
            merge_factory(LMergeR3), num_shards=1, backend=backend
        ).start()
        runtime.close()
        with pytest.raises(RuntimeError):
            runtime.submit(0, 0, [Insert("a", 1)])

    def test_context_manager_closes(self, backend):
        with ParallelRuntime(
            merge_factory(LMergeR3), num_shards=1, backend=backend
        ) as runtime:
            runtime.broadcast_attach(0)
            runtime.submit(0, 0, [Insert("a", 1), Stable(INFINITY)])
        assert runtime.stats[0].inserts_in == 1


class TestGuards:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ParallelRuntime(merge_factory(LMergeR3), 2, backend="gpu")

    def test_unstarted_rejects_submit(self):
        runtime = ParallelRuntime(merge_factory(LMergeR3), 2)
        with pytest.raises(RuntimeError):
            runtime.submit(0, 0, [Insert("a", 1)])

    def test_double_start_rejected(self):
        runtime = ParallelRuntime(merge_factory(LMergeR3), 1, backend="serial")
        runtime.start()
        with pytest.raises(RuntimeError):
            runtime.start()
        runtime.close()

    def test_factory_is_picklable(self):
        factory = merge_factory(LMergeR3)
        clone = pickle.loads(pickle.dumps(factory))
        merge = clone(lambda element: None)
        assert isinstance(merge, LMergeR3)


class TestErrorPropagation:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_worker_error_raises_shard_error(self, backend):
        runtime = ParallelRuntime(
            merge_factory(LMergeR3), num_shards=2, backend=backend
        ).start()
        # An element from an unattached stream makes the worker raise.
        runtime.submit(0, 99, [Insert("a", 1)])
        with pytest.raises(ShardError) as excinfo:
            runtime.close()
        assert "unattached" in excinfo.value.details


class TestBackpressure:
    def test_bounded_queue_caps_capacity(self):
        """A held worker's queue fills to QUEUE_CAPACITY and the next submit
        blocks until the worker drains it; every batch arrives."""
        gate = threading.Event()

        class Held(LMergeR3):  # its worker waits on the gate before each batch
            def process_columns(self, *args, **kwargs):
                gate.wait(30) and super().process_columns(*args, **kwargs)

        total, depths = 3 * QUEUE_CAPACITY, []
        # Opens the gate early only if a submit blocked below the bound.
        failsafe = threading.Timer(10, gate.set)
        with ParallelRuntime(merge_factory(Held), 1, backend="thread") as runtime:
            runtime.broadcast_attach(0)
            failsafe.start()
            try:
                for i in range(total):
                    if i == QUEUE_CAPACITY + 1:  # one held, the rest queued
                        assert runtime.queue_depths() == [QUEUE_CAPACITY]
                        threading.Timer(0.2, gate.set).start()
                    runtime.submit(0, 0, [Insert((0, i), i + 1)])
                    assert gate.is_set() == (i > QUEUE_CAPACITY)  # blocked till then
                    depths.extend(runtime.queue_depths())
            finally:
                failsafe.cancel()
                gate.set()
        assert max(depths) <= QUEUE_CAPACITY
        assert runtime.stats[0].inserts_in == total
