"""Tests for LMerge-specific gauges (repro.obs.lmerge_obs)."""

import math

from repro.engine.operator import Operator
from repro.lmerge.base import MergeStats
from repro.lmerge.feedback import FeedbackSignal
from repro.lmerge.r3 import LMergeR3
from repro.lmerge.sharded import shard
from repro.obs.lmerge_obs import (
    LMergeObserver,
    ShardObserver,
    count_feedback,
    frontier_lag,
)
from repro.obs.registry import MetricRegistry
from repro.temporal.elements import Insert, Stable

from conftest import divergent_inputs, small_stream


class TestFrontierLag:
    def test_both_unpunctuated(self):
        assert frontier_lag(-math.inf, -math.inf) == 0.0

    def test_input_unpunctuated_behind_finite_output(self):
        assert frontier_lag(50.0, -math.inf) == math.inf

    def test_leading_input_clamps_to_zero(self):
        assert frontier_lag(10.0, 25.0) == 0.0

    def test_trailing_input(self):
        assert frontier_lag(25.0, 10.0) == 15.0


class TestLMergeObserver:
    def test_lag_gauges_match_hand_computed_scenario(self):
        """Scripted divergent inputs: input 0 punctuates to 30, input 1
        only to 10; the R3 merge's frontier is the max (30), so input 1
        lags by exactly 20 and input 0 leads at lag 0."""
        registry = MetricRegistry()
        merge = LMergeR3()
        merge.attach(0)
        merge.attach(1)
        observer = LMergeObserver(merge, registry, bucket=1.0)

        for t in (1, 5, 9):
            element = Insert(f"p{t}", t, t + 100)
            merge.process(element, 0)
            merge.process(element, 1)
        merge.process(Stable(30), 0)
        merge.process(Stable(10), 1)
        assert merge.max_stable == 30

        lags = observer.sample(clock=6.0)
        assert lags == {0: 0.0, 1: 20.0}
        assert registry.gauge(
            "lmerge_frontier_lag", {"merge": merge.name, "input": 0}
        ).value == 0.0
        assert registry.gauge(
            "lmerge_frontier_lag", {"merge": merge.name, "input": 1}
        ).value == 20.0
        assert registry.gauge(
            "lmerge_output_frontier", {"merge": merge.name}
        ).value == 30
        # Leadership: input 0's stable point is ahead.
        assert registry.gauge(
            "lmerge_leading", {"merge": merge.name, "input": 0}
        ).value == 1
        assert registry.gauge(
            "lmerge_leading", {"merge": merge.name, "input": 1}
        ).value == 0

        # Advance input 1 past input 0; leadership and lag flip.
        merge.process(Stable(40), 1)
        lags = observer.sample(clock=7.0)
        assert lags == {0: 10.0, 1: 0.0}
        assert registry.gauge(
            "lmerge_leading", {"merge": merge.name, "input": 1}
        ).value == 1
        series = observer.lag_series()
        assert series["1"] == [[6.0, 20.0], [7.0, 0.0]]

    def test_infinite_lag_skipped_in_series(self):
        registry = MetricRegistry()
        merge = LMergeR3()
        merge.attach(0)
        merge.attach(1)
        observer = LMergeObserver(merge, registry)
        merge.process(Insert("a", 1, 5), 0)
        merge.process(Stable(3), 0)  # input 1 never punctuated
        lags = observer.sample(clock=0.0)
        assert lags[1] == math.inf
        assert registry.gauge(
            "lmerge_frontier_lag", {"merge": merge.name, "input": 1}
        ).value == math.inf
        # The inf sample stays out of the plottable series.
        assert "1" not in observer.lag_series()

    def test_duplicate_elimination_from_stats_deltas(self):
        registry = MetricRegistry()
        reference = small_stream(count=200, blob=2)
        inputs = divergent_inputs(reference, n=2)
        merge = LMergeR3()
        observer = LMergeObserver(merge, registry)
        merge.merge_batched(inputs, schedule="sequential")
        observer.sample()
        stats = merge.stats
        assert registry.counter(
            "lmerge_inserts_in_total", {"merge": merge.name}
        ).value == stats.inserts_in
        expected_dropped = stats.inserts_in - stats.inserts_out
        assert registry.counter(
            "lmerge_duplicates_dropped_total", {"merge": merge.name}
        ).value == expected_dropped
        assert observer.duplicate_hit_rate() == (
            expected_dropped / stats.inserts_in
        )
        # Sampling again without new traffic adds nothing (delta-based).
        observer.sample()
        assert registry.counter(
            "lmerge_inserts_in_total", {"merge": merge.name}
        ).value == stats.inserts_in

    def test_feedback_emitted_counter(self):
        registry = MetricRegistry()
        merge = LMergeR3()
        merge.attach(0)
        merge.attach(1)
        observer = LMergeObserver(merge, registry)
        merge.process(Insert("a", 1, 5), 0)
        merge.process(Insert("a", 1, 5), 1)
        merge.process(Stable(20), 0)
        # Output frontier advanced to 20 while input 1 sits at -inf: the
        # merge raises fast-forward feedback toward input 1.
        emitted = registry.counter(
            "lmerge_feedback_emitted_total", {"merge": merge.name, "input": 1}
        )
        assert emitted.value >= 1
        assert registry.gauge(
            "lmerge_feedback_horizon", {"merge": merge.name}
        ).value == 20
        assert observer is not None  # listener held by the merge

    def test_count_feedback_honored(self):
        registry = MetricRegistry()

        class Upstream(Operator):  # noqa: REP102 — feedback-only stub
            def on_insert(self, element, port):
                self.emit(element)

        upstream = count_feedback(Upstream("source"), registry)
        upstream.on_feedback(FeedbackSignal(horizon=10))
        upstream.on_feedback(FeedbackSignal(horizon=20))
        assert registry.counter(
            "lmerge_feedback_honored_total", {"op": "source"}
        ).value == 2


class TestShardObserver:
    def test_sharded_gauges_consistent_with_merge_stats(self):
        """A sharded run's registry counters must agree with the sum of
        the per-shard MergeStats."""
        registry = MetricRegistry()
        reference = small_stream(count=300, blob=2)
        inputs = divergent_inputs(reference, n=2)
        plan = shard(LMergeR3, 2, backend="serial", registry=registry)
        plan.merge(inputs, schedule="sequential")
        aggregate = sum(plan.shard_stats, MergeStats())
        assert aggregate.elements_in == plan.stats.elements_in

        total_in = sum(
            registry.counter(
                "shard_elements_in_total", {"merge": plan.name, "shard": s}
            ).value
            for s in range(2)
        )
        total_out = sum(
            registry.counter(
                "shard_elements_out_total", {"merge": plan.name, "shard": s}
            ).value
            for s in range(2)
        )
        assert total_in == aggregate.elements_in
        assert total_out == aggregate.elements_out

        # Frontier gauges: each shard's gauge holds its final frontier and
        # the combined emitted stable is their pointwise minimum.
        frontiers = [
            registry.gauge(
                "shard_frontier", {"merge": plan.name, "shard": s}
            ).value
            for s in range(2)
        ]
        assert tuple(frontiers) == plan.shard_frontiers
        assert registry.gauge(
            "shard_emitted_stable", {"merge": plan.name}
        ).value == plan.max_stable == min(frontiers)

    def test_cti_lag_vs_most_advanced_shard(self):
        class FakePlan:
            name = "fake"
            shard_frontiers = (10.0, 30.0, 25.0)
            max_stable = 10.0
            shard_stats = []

            def queue_depths(self):
                return [2, None, 0]

        registry = MetricRegistry()
        observer = ShardObserver(FakePlan(), registry)
        observer.sample()
        lag = lambda s: registry.gauge(  # noqa: E731
            "shard_cti_lag", {"merge": "fake", "shard": s}
        ).value
        assert lag(0) == 20.0  # trails the most advanced shard (30)
        assert lag(1) == 0.0
        assert lag(2) == 5.0
        assert registry.gauge(
            "shard_queue_depth", {"merge": "fake", "shard": 0}
        ).value == 2
        # Shard 1's depth is unknown (None) -> no gauge registered.
        assert registry.get(
            "shard_queue_depth", {"merge": "fake", "shard": 1}
        ) is None

    def test_queue_peak_tracks_maximum(self):
        class FakePlan:
            name = "fake"
            shard_frontiers = ()
            max_stable = 0.0
            shard_stats = []

            def __init__(self):
                self.depth = 0

            def queue_depths(self):
                return [self.depth]

        plan = FakePlan()
        registry = MetricRegistry()
        observer = ShardObserver(plan, registry)
        for depth in (3, 7, 2):
            plan.depth = depth
            observer.sample()
        peak = registry.gauge("shard_queue_peak", {"merge": "fake", "shard": 0})
        assert peak.value == 7
