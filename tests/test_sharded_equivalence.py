"""Sharded plans are semantically invisible (satellite property tests).

Two claims, both from the partitioning argument in ``repro.lmerge.sharded``:

1. The sharded plan's emitted CTIs are exactly the pointwise minimum of
   the per-shard frontiers (ShardUnion alignment at the plan level).
2. For every variant, the sharded output reconstitutes to the reference
   TDB for random shard counts and shapes, and R3/R4's per-key output is
   the unsharded merge's (``oracle.check_sharded``).
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
from repro.lmerge.sharded import ShardedLMerge, shard
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import SupervisedRuntime
from repro.temporal.elements import Stable
from repro.temporal.tdb import reconstitute

from conftest import divergent_inputs, small_stream
from oracle import SHAPES, VARIANTS, check_sharded


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
