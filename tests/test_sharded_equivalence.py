"""Sharded plans are semantically invisible (satellite property tests).

Two claims, both from the partitioning argument in ``repro.lmerge.shard``:

1. The sharded plan's emitted CTIs are exactly the pointwise minimum of
   the per-shard frontiers (ShardUnion alignment at the plan level).
2. For every variant R0-R4, the sharded output reconstitutes to the same
   TDB as the unsharded variant and the reference stream, for random
   shard counts and disorder levels.
"""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.parallel import ParallelRuntime
from repro.lmerge.r0 import LMergeR0
from repro.lmerge.r1 import LMergeR1
from repro.lmerge.r2 import LMergeR2
from repro.lmerge.r3 import LMergeR3
from repro.lmerge.r4 import LMergeR4
from repro.lmerge.shard import ShardedLMerge, shard
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import SupervisedRuntime
from repro.temporal.elements import Stable
from repro.temporal.tdb import reconstitute
from repro.theory.equivalence import equivalent_prefixes

from conftest import data_by_key, divergent_inputs, small_stream

ALL_VARIANTS = [LMergeR0, LMergeR1, LMergeR2, LMergeR3, LMergeR4]


def run_sharded(variant, inputs, num_shards):
    plan = shard(variant, num_shards, backend="serial")
    output = plan.merge(inputs, schedule="round_robin")
    return plan, output


def variant_inputs(variant, seed, disorder):
    """Inputs legal for *variant*: R0-R2 take strictly ordered,
    adjust-free replicas; R3/R4 take fully divergent speculative inputs."""
    if variant in (LMergeR0, LMergeR1, LMergeR2):
        reference = small_stream(
            count=150, seed=seed, disorder=0.0, min_gap=1
        )
        return reference, [reference, reference]
    reference = small_stream(count=150, seed=seed, disorder=disorder)
    return reference, divergent_inputs(reference, n=2)


class TestShardedTdbEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        variant=st.sampled_from(ALL_VARIANTS),
        num_shards=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=40),
        disorder=st.sampled_from([0.0, 0.2, 0.5]),
    )
    def test_sharded_matches_unsharded_tdb(
        self, variant, num_shards, seed, disorder
    ):
        reference, inputs = variant_inputs(variant, seed, disorder)

        plan, sharded_out = run_sharded(variant, inputs, num_shards)
        unsharded_out = variant().merge(inputs, schedule="round_robin")

        assert sharded_out.tdb() == unsharded_out.tdb() == reference.tdb()
        assert equivalent_prefixes(
            list(sharded_out),
            len(sharded_out),
            list(unsharded_out),
            len(unsharded_out),
        )

    def test_key_local_variants_are_element_identical(self):
        """R3/R4 make per-(Vs,payload) decisions from key-local state, so
        sharding preserves not just the TDB but the per-key element
        sequences: re-sorting both outputs by key yields identical lists.
        The unsharded run must consume the same interleaving, so it uses
        the batched driver with the plan's batch size."""
        reference = small_stream(count=300, seed=9, disorder=0.3)
        inputs = divergent_inputs(reference, n=3)
        for variant in (LMergeR3, LMergeR4):
            plan, sharded_out = run_sharded(variant, inputs, 4)
            unsharded_out = variant().merge_batched(
                inputs, schedule="round_robin", batch_size=64
            )

            assert data_by_key(sharded_out) == data_by_key(unsharded_out)


class TestPlanLevelCtiAlignment:
    @settings(max_examples=15, deadline=None)
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
        plan, output = run_sharded(LMergeR3, inputs, 3)
        elements = list(output)
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
