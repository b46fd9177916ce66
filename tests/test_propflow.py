"""Static property-flow analysis and LMerge soundness checking."""

import pytest

from repro.analysis.propflow import (
    VERDICT_EXACT,
    VERDICT_OVER_CONSERVATIVE,
    VERDICT_UNSOUND,
    UnsoundPlanError,
    analyze_graph,
    check_plan,
    verify_plan,
)
from repro.engine.operator import Operator
from repro.engine.query import Query
from repro.operators.aggregate import AggregateMode, GroupedCount
from repro.operators.select import Filter
from repro.operators.union import Union
from repro.streams.properties import Restriction, StreamProperties
from tests.conftest import small_stream


def _grouped_replicas(mode=AggregateMode.AGGRESSIVE, disorder=0.3, n=2):
    """Replica queries: grouped aggregation over a disordered source."""
    return [
        Query.from_stream(
            small_stream(count=200, seed=5 + i, disorder=disorder),
            name=f"src{i}",
        ).then(
            GroupedCount(
                window=100,
                key_fn=lambda p: p[0] % 4,
                mode=mode,
                name=f"grouped{i}",
            )
        )
        for i in range(n)
    ]


def _ordered_replicas(n=2):
    return [
        Query.from_stream(
            small_stream(count=150, seed=2, disorder=0.0, min_gap=1),
            name=f"src{i}",
        )
        for i in range(n)
    ]


class TestAnalyzeGraph:
    def test_walks_downstream_to_find_merge_sites(self):
        replicas = _grouped_replicas()
        Query.merge_with(replicas)
        # Hand the analyzer only a source head: it must still discover the
        # LMerge site downstream.
        analysis = analyze_graph(replicas[0].head)
        assert len(analysis.sites) == 1
        assert len(analysis.sites[0].adapters) == 2

    def test_property_map_covers_whole_graph(self):
        replicas = _grouped_replicas()
        analysis = analyze_graph(*replicas)
        # Sources infer their measured properties; aggregates their
        # declared transfer result.
        for query in replicas:
            assert analysis.properties_of(query.tail) == StreamProperties(
                key_vs_payload=True
            )
        assert not analysis.cyclic

    def test_diamond_graph_single_evaluation(self):
        base = Query.from_stream(
            small_stream(count=100, seed=1, disorder=0.0, min_gap=1)
        )
        left = base.then(Filter(lambda p: p[1] % 2 == 0, name="even"))
        right = Query(base.head, base.head).then(
            Filter(lambda p: p[1] % 2 == 1, name="odd")
        )
        union = Union(2, name="u")
        joined = Query.combine([left, right], union)
        analysis = analyze_graph(joined)
        # Both filter branches preserve the source's strong properties;
        # the union forfeits order/determinism/key.
        props = analysis.properties_of(union)
        assert props.insert_only
        assert not props.ordered
        assert not props.key_vs_payload

    def test_cycle_pessimized_to_unknown(self):
        a = Filter(lambda p: True, name="a")
        b = Filter(lambda p: True, name="b")
        a.subscribe(b)
        b.subscribe(a)
        analysis = analyze_graph(a)
        assert set(analysis.cyclic) == {a, b}
        assert analysis.properties_of(a) == StreamProperties.unknown()

    def test_query_property_map_helper(self):
        query = _ordered_replicas(1)[0]
        mapping = query.property_map()
        assert mapping[query.tail].strictly_increasing


class TestSoundness:
    def test_matching_selection_is_exact(self):
        replicas = _grouped_replicas()
        Query.merge_with(replicas)
        check = check_plan(*replicas, plan="grouped")
        assert check.ok
        assert [site.verdict for site in check.sites] == [VERDICT_EXACT]
        assert check.sites[0].selected is Restriction.R3
        assert check.sites[0].inferred is Restriction.R3

    def test_unsound_selection_rejected(self):
        # Disordered grouped aggregate (inferred R3) forced into the R1
        # algorithm: the analyzer must error.
        replicas = _grouped_replicas()
        Query.merge_with(replicas, force=Restriction.R1)
        check = check_plan(*replicas, plan="unsound")
        assert not check.ok
        site = check.sites[0]
        assert site.verdict == VERDICT_UNSOUND
        assert site.selected is Restriction.R1
        assert site.inferred is Restriction.R3
        with pytest.raises(UnsoundPlanError, match="R3"):
            verify_plan(*replicas, plan="unsound")

    def test_over_conservative_selection_warned(self):
        # Ordered sources (inferred R0) forced into the general R4
        # algorithm: correct but wasteful — a warning, not an error.
        replicas = _ordered_replicas()
        Query.merge_with(replicas, force=Restriction.R4)
        check = check_plan(*replicas, plan="conservative")
        assert check.ok  # warnings do not fail the plan
        site = check.sites[0]
        assert site.verdict == VERDICT_OVER_CONSERVATIVE
        assert site.selected is Restriction.R4
        assert site.inferred is Restriction.R0
        verify_plan(*replicas, plan="conservative")  # non-strict passes
        with pytest.raises(UnsoundPlanError):
            verify_plan(*replicas, plan="conservative", strict=True)

    def test_sharded_site_checked_through_wrapper(self):
        replicas = _grouped_replicas()
        merge = Query.merge_with(replicas, shards=2, backend="serial")
        try:
            check = check_plan(*replicas, plan="sharded")
            assert check.ok
            assert check.sites[0].selected is Restriction.R3
        finally:
            merge.close()

    def test_site_json_round_trip(self):
        replicas = _ordered_replicas()
        Query.merge_with(replicas)
        payload = check_plan(*replicas, plan="json").to_json()
        assert payload["ok"]
        assert payload["plan"] == "json"
        (site,) = payload["sites"]
        assert site["selected"] == site["inferred"] == "R0"
        assert site["input_properties"]["strictly_increasing"]

    def test_plan_without_sites(self):
        query = _ordered_replicas(1)[0]
        check = check_plan(query, plan="bare")
        assert check.ok
        assert check.sites == []
        assert "no LMerge sites" in check.render()

    def test_undeclared_restriction_raises(self):
        class FakeAdapter(Operator):  # inert test double
            def __init__(self, target):
                super().__init__("fake")
                self.lmerge = target
                self.stream_id = 0

        query = _ordered_replicas(1)[0]
        query.tail.subscribe(FakeAdapter(object()))
        with pytest.raises(TypeError, match="no LMerge restriction"):
            check_plan(query)
