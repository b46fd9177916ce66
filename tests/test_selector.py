"""Tests for compile-time algorithm selection (Section IV-G)."""

import pytest

from repro.engine.query import Query
from repro.lmerge.policies import (
    CONSERVATIVE_POLICY,
    InsertPropagation,
    OutputPolicy,
)
from repro.lmerge.r0 import LMergeR0
from repro.lmerge.r1 import LMergeR1
from repro.lmerge.r2 import LMergeR2
from repro.lmerge.r3 import LMergeR3
from repro.lmerge.r4 import LMergeR4
from repro.lmerge.selector import algorithm_for, create_lmerge
from repro.streams.properties import Restriction, StreamProperties
from repro.streams.stream import PhysicalStream

#: A non-default policy that only LMergeR3 implements.
QUORUM_POLICY = OutputPolicy(insert=InsertPropagation.QUORUM, stable_lag=5.0)


class TestAlgorithmFor:
    def test_explicit_restrictions(self):
        assert algorithm_for(Restriction.R0) is LMergeR0
        assert algorithm_for(Restriction.R1) is LMergeR1
        assert algorithm_for(Restriction.R2) is LMergeR2
        assert algorithm_for(Restriction.R3) is LMergeR3
        assert algorithm_for(Restriction.R4) is LMergeR4

    def test_from_properties(self):
        assert algorithm_for(StreamProperties.strongest()) is LMergeR0
        assert algorithm_for(StreamProperties.unknown()) is LMergeR4
        assert algorithm_for(StreamProperties(key_vs_payload=True)) is LMergeR3

    def test_meet_over_multiple_inputs(self):
        """All inputs must satisfy the chosen restriction: one weak input
        forces the general algorithm."""
        strong = StreamProperties.strongest()
        weak = StreamProperties(key_vs_payload=True)
        assert algorithm_for([strong, strong]) is LMergeR0
        assert algorithm_for([strong, weak]) is LMergeR3
        assert algorithm_for([strong, StreamProperties.unknown()]) is LMergeR4

    def test_empty_properties_rejected(self):
        with pytest.raises(ValueError):
            algorithm_for([])


class TestCreateLMerge:
    def test_creates_instances(self):
        merge = create_lmerge(Restriction.R3)
        assert isinstance(merge, LMergeR3)

    def test_policy_honoured_for_r3(self):
        merge = create_lmerge(Restriction.R3, policy=CONSERVATIVE_POLICY)
        assert merge.policy is CONSERVATIVE_POLICY

    def test_policy_rejected_for_simple_algorithms(self):
        with pytest.raises(ValueError):
            create_lmerge(Restriction.R0, policy=CONSERVATIVE_POLICY)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_policy_rejected_for_r4(self, shards):
        # R4 has no policy hooks: the policy must not be dropped silently.
        with pytest.raises(ValueError, match="no output-policy"):
            create_lmerge(
                Restriction.R4, policy=QUORUM_POLICY, shards=shards, backend="serial"
            )

    def test_policy_rejected_for_r4_through_query(self):
        replicas = [Query.from_stream(PhysicalStream()) for _ in range(2)]
        with pytest.raises(ValueError, match="no output-policy"):
            Query.merge_with(replicas, policy=QUORUM_POLICY, force=Restriction.R4)

    def test_kwargs_forwarded(self):
        merge = create_lmerge(Restriction.R1, name="custom")
        assert merge.name == "custom"


class TestSectionIVGExamples:
    """The six worked examples of Section IV-G, via the engine's
    property inference."""

    def make_stream(self, disorder):
        from repro.streams.generator import GeneratorConfig, StreamGenerator

        config = GeneratorConfig(
            count=200, seed=1, disorder=disorder, payload_blob_bytes=2
        )
        return StreamGenerator(config).generate()

    def test_windowed_aggregate_over_ordered_gives_r0(self):
        from repro.engine.query import Query
        from repro.operators import AggregateMode, WindowedCount

        query = Query.from_stream(self.make_stream(0.0)).then(
            WindowedCount(window=50)
        )
        assert query.restriction() is Restriction.R0

    def test_topk_gives_r1(self):
        from repro.engine.query import Query
        from repro.operators import TopK

        query = Query.from_stream(self.make_stream(0.0)).then(
            TopK(window=50, k=3, score_fn=lambda p: p[0])
        )
        assert query.restriction() is Restriction.R1

    def test_grouped_aggregation_over_ordered_gives_r2(self):
        from repro.engine.query import Query
        from repro.operators import GroupedCount

        query = Query.from_stream(self.make_stream(0.0)).then(
            GroupedCount(window=50, key_fn=lambda p: p[0] % 4)
        )
        assert query.restriction() is Restriction.R2

    def test_aggressive_aggregation_gives_r3(self):
        from repro.engine.query import Query
        from repro.operators import AggregateMode, GroupedCount

        query = Query.from_stream(self.make_stream(0.3)).then(
            GroupedCount(
                window=50,
                key_fn=lambda p: p[0] % 4,
                mode=AggregateMode.AGGRESSIVE,
            )
        )
        assert query.restriction() is Restriction.R3

    def test_cleanse_enforces_r1(self):
        from repro.engine.query import Query
        from repro.operators import Cleanse

        query = Query.from_stream(self.make_stream(0.5)).then(Cleanse())
        assert query.restriction() in (Restriction.R1, Restriction.R0)

    def test_union_destroys_order(self):
        from repro.engine.query import Query
        from repro.operators import Union

        union = Union(num_inputs=2)
        query = Query.combine(
            [
                Query.from_stream(self.make_stream(0.0)),
                Query.from_stream(self.make_stream(0.0)),
            ],
            union,
        )
        assert query.restriction() is Restriction.R4

    def test_merge_with_picks_selected_algorithm(self):
        from repro.engine.query import Query
        from repro.operators import WindowedCount

        replicas = [
            Query.from_stream(self.make_stream(0.0)).then(WindowedCount(50))
            for _ in range(2)
        ]
        merge = Query.merge_with(replicas)
        assert isinstance(merge, LMergeR0)
