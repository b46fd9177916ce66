"""Sharded plans are semantically invisible (satellite property tests).

Two claims, both from the partitioning argument in ``repro.lmerge.sharded``:

1. The sharded plan's emitted CTIs are exactly the pointwise minimum of
   the per-shard frontiers (ShardUnion alignment at the plan level).
2. For every variant, the sharded output reconstitutes to the reference
   TDB for random shard counts and shapes, and R3/R4's per-key output is
   the unsharded merge's (``oracle.check_sharded``).

A third is physical: a process plan hands back the caller's own element
objects wherever the unsharded merge would (``TestRowReferences``).
"""

import inspect
import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.parallel import ParallelRuntime
from repro.lmerge.policies import CONSERVATIVE_POLICY
from repro.lmerge.r3 import LMergeR3
from repro.lmerge.r4 import LMergeR4
from repro.lmerge.selector import create_lmerge
from repro.lmerge.sharded import ShardedLMerge, shard
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import SupervisedRuntime
from repro.engine.parallel import merge_factory
from repro.engine.operator import CollectorSink
from repro.operators.exchange import ShardUnion, partition_batch
from repro.temporal.elements import Insert, Stable
from repro.temporal.tdb import reconstitute

from conftest import divergent_inputs, small_stream
from oracle import SHAPES, VARIANTS, check_sharded, scenario


class TestShardedTdbEquivalence:
    @settings(max_examples=12)
    @given(
        name=st.sampled_from(sorted(VARIANTS)),
        num_shards=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=40),
        shape=st.sampled_from(sorted(SHAPES)),
    )
    def test_sharded_matches_unsharded_tdb(self, name, num_shards, seed, shape):
        check_sharded(name, shape, seed, shards=num_shards, backend="serial")

    def test_key_local_variants_are_element_identical(self):
        """R3/R4 make per-(Vs,payload) decisions from key-local state, so
        sharding preserves the per-key element sequences, not just the
        TDB (the oracle feeds the unsharded merge the plan's batches)."""
        for name in ("LMR3+", "LMR4"):
            check_sharded(name, seed=9, shards=4, backend="serial")


class TestPlanLevelCtiAlignment:
    @settings(max_examples=15)
    @given(
        num_shards=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=30),
    )
    def test_output_ctis_are_min_of_shard_frontiers(self, num_shards, seed):
        """Every CTI the plan emits equals the pointwise minimum of the
        shard frontiers at that moment, and the final frontier matches."""
        reference = small_stream(
            count=150, seed=seed, disorder=0.3, stable_freq=0.1
        )
        inputs = divergent_inputs(reference, n=2)
        plan = shard(LMergeR3, num_shards, backend="serial")
        output = plan.merge(inputs)

        emitted = [e.vc for e in output if isinstance(e, Stable)]
        assert emitted == sorted(set(emitted)), "CTIs strictly increase"
        assert plan.max_stable == (emitted[-1] if emitted else plan.max_stable)
        assert plan.max_stable == min(plan.shard_frontiers)

    def test_broadcast_stable_advances_every_shard(self):
        """A stable() fed to the plan is broadcast, so every shard frontier
        (and therefore their minimum) advances in lockstep."""
        plan = ShardedLMerge(LMergeR3, num_shards=3, backend="serial")
        plan.attach(0)
        plan.process_batch([Stable(50)], 0)
        assert plan.shard_frontiers == (50, 50, 50)
        assert plan.max_stable == 50
        plan.close()

    def test_output_reconstitutes_under_partial_consumption(self):
        """TDB of every output prefix ending at a CTI is a valid snapshot
        of some input prefix (sanity of mid-stream alignment)."""
        reference = small_stream(count=100, seed=5, disorder=0.2)
        inputs = divergent_inputs(reference, n=2)
        elements = list(shard(LMergeR3, 3, backend="serial").merge(inputs))
        cti_positions = [
            i for i, e in enumerate(elements) if isinstance(e, Stable)
        ]
        for position in cti_positions[:: max(1, len(cti_positions) // 5)]:
            prefix_tdb = reconstitute(elements[: position + 1])
            assert prefix_tdb is not None


class TestPlanSurface:
    """Everything that configures a sharded plan (the rest is constants)."""

    def test_signatures_are_the_kept_options(self):
        names = lambda obj: " ".join(inspect.signature(obj).parameters)
        assert names(shard) == "variant num_shards options"
        assert names(ShardedLMerge) == (
            "merge_cls num_shards backend coalesce_stables registry envelope "
            "supervised durable_dir fault_plan fsync telemetry_interval tracer "
            "merge_kwargs"
        )
        assert names(ParallelRuntime) == (
            "factory num_shards backend coalesce_stables registry envelope "
            "telemetry_interval tracer"
        )
        assert names(SupervisedRuntime) == (
            "factory num_shards durable_dir fault_plan fsync coalesce_stables "
            "registry telemetry_interval tracer"
        )
        # The thread backend buys no parallelism under the GIL.
        for obj in (ShardedLMerge, ParallelRuntime, create_lmerge):
            assert inspect.signature(obj).parameters["backend"].default == "serial"

    @pytest.mark.parametrize(
        "options, error",
        [
            ({"key_fn": hash}, TypeError),
            ({"supervisor_options": {}}, TypeError),
            ({"queue_capacity": 8}, TypeError),
            ({"durable_dir": "state"}, ValueError),  # needs supervised=True
            ({"fault_plan": FaultPlan()}, ValueError),
        ],
    )
    def test_retired_and_unsupervised_options_are_rejected(self, options, error):
        with pytest.raises(error):
            shard(LMergeR3, 2, backend="serial", **options)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_a_keyword_the_variant_does_not_take_fails_before_any_worker(
        self, backend
    ):
        with pytest.raises(TypeError, match="policy"):
            shard(LMergeR4, 2, backend=backend, policy=CONSERVATIVE_POLICY)
        assert multiprocessing.active_children() == []


def _reused(output, streams):
    """The output inserts that are objects the caller submitted."""
    submitted = {id(e) for stream in streams for e in stream}
    return {id(e) for e in output if e.__class__ is Insert and id(e) in submitted}


class _RecordingRuntime(ParallelRuntime):
    """Notes, per shard, the last BATCH seq an OUT frame answered."""

    def start(self):
        self.last_answered = [0] * self.num_shards
        return super().start()

    def _answered(self, shard, seq):
        self.last_answered[shard] = seq
        return super()._answered(shard, seq)


class TestRowReferences:
    """OUT frames send a re-emitted input row as its index into the BATCH
    they answer, and the driver resolves it to the caller's object."""

    @pytest.mark.parametrize("name", ["LMR1", "LMR3+", "LMR4"])
    def test_reemitted_inputs_are_the_callers_objects(self, name):
        streams = scenario(name, seed=5, replicas=3).replicas
        unsharded = VARIANTS[name]().merge(streams, batch_size=16)
        plan = shard(VARIANTS[name], 2, backend="process")
        sharded = plan.merge(streams, batch_size=16)
        assert _reused(unsharded, streams)  # the premise: inputs re-emitted
        assert _reused(sharded, streams) == _reused(unsharded, streams)
        assert all(not table for table in plan.runtime._inflight)

    def test_inflight_table_holds_only_frames_since_the_last_out(self):
        streams = scenario("LMR3+", seed=8, replicas=3).replicas
        largest = 0
        with _RecordingRuntime(
            merge_factory(LMergeR3), 2, backend="process"
        ) as runtime:
            for stream_id in range(len(streams)):
                runtime.broadcast_attach(stream_id)
            for start in range(0, max(map(len, streams)), 8):
                for stream_id, stream in enumerate(streams):
                    chunk = stream[start : start + 8]
                    for shard_id, bucket in enumerate(partition_batch(chunk, 2)):
                        if bucket:
                            runtime.submit(shard_id, stream_id, bucket)
                    runtime.poll()
                    for shard_id, table in enumerate(runtime._inflight):
                        largest = max(largest, len(table))
                        assert all(
                            runtime.last_answered[shard_id] < seq
                            < runtime._next_seq[shard_id]
                            for seq, _ in table
                        )
        runtime.poll()
        assert min(runtime.last_answered) > 0  # OUT frames were answered
        assert largest > 0
        assert all(not table for table in runtime._inflight)

    def test_poll_returns_lists_that_a_columnar_reader_still_takes(self):
        streams = scenario("LMR3+", seed=8, replicas=3).replicas
        polled = []
        with ParallelRuntime(
            merge_factory(LMergeR3), 2, backend="process"
        ) as runtime:
            for stream_id in range(len(streams)):
                runtime.broadcast_attach(stream_id)
            for stream_id, stream in enumerate(streams):
                for shard_id, bucket in enumerate(partition_batch(stream, 2)):
                    if bucket:
                        runtime.submit(shard_id, stream_id, bucket)
                polled.extend(runtime.poll())
        polled.extend(runtime.poll())
        assert polled and all(isinstance(rows, list) for _, rows in polled)
        by_list, by_columns = CollectorSink(), CollectorSink()
        for sink, deliver in (
            (by_list, ShardUnion.receive_batch),
            (by_columns, ShardUnion.receive_columns),
        ):
            union = ShardUnion(2)
            union.subscribe(sink)
            for shard_id, rows in polled:
                deliver(union, rows, shard_id)
        assert by_columns.stream == by_list.stream
