"""Cross-module integration tests: policies under the oracle, composed
plans, counters, and mixed delay models."""

from functools import partial

import pytest

from repro.engine.query import Query
from repro.engine.simulation import (
    BurstyDelay,
    CongestionWindows,
    SimulatedChannel,
    Simulation,
    timed_schedule,
)
from repro.lmerge.policies import (
    CONSERVATIVE_POLICY,
    EAGER_POLICY,
    InsertPropagation,
    OutputPolicy,
)
from repro.lmerge.r3 import LMergeR3
from repro.lmerge.r4 import LMergeR4
from repro.operators.aggregate import AggregateMode, GroupedCount
from repro.operators.select import Filter
from repro.operators.union import Union
from repro.temporal.elements import Insert, Stable

from conftest import small_stream
from oracle import check


class TestPoliciesUnderOracle:
    """Every policy must keep the C1-C3 invariants at every step."""

    @pytest.mark.parametrize(
        "policy",
        [
            EAGER_POLICY,
            CONSERVATIVE_POLICY,
            OutputPolicy(insert=InsertPropagation.LEADING),
            OutputPolicy(insert=InsertPropagation.QUORUM, quorum_fraction=0.6),
        ],
        ids=["eager", "half-frozen", "leading", "quorum"],
    )
    def test_policy_oracle(self, policy):
        check("LMR3+", seed=150, make=partial(LMergeR3, policy=policy),
              paths=("process",), policies=("none",))


class TestDetachUnderOracle:
    def test_r3_detach_midway_stays_compatible(self):
        """The roster script detaches the laggard and the straggler; the
        oracle judges against the survivors plus each failed input's
        final, frozen-in-time prefix."""
        check("LMR3+", seed=151, paths=("process",), policies=("none",))


class TestCounters:
    def test_dropped_frozen_counter(self):
        merge = LMergeR3()
        merge.attach(0)
        merge.attach(1)
        merge.process(Insert("a", 1, 3), 0)
        merge.process(Stable(10), 0)
        merge.process(Insert("a", 1, 3), 1)  # laggard echo
        assert merge.dropped_frozen == 1

    def test_stable_scan_counter(self):
        merge = LMergeR3()
        merge.attach(0)
        for index in range(10):
            merge.process(Insert(("p", index), index, index + 100), 0)
        merge.process(Stable(5), 0)
        assert merge.stable_scan_nodes == 5  # nodes with Vs < 5

    def test_r4_counters_exist(self):
        merge = LMergeR4()
        merge.attach(0)
        merge.process(Insert("a", 1, 3), 0)
        merge.process(Stable(10), 0)
        merge.process(Insert("b", 1, 3), 0)
        assert merge.dropped_frozen == 1
        assert merge.stable_scan_nodes >= 1


class TestComposedPlans:
    def test_union_then_aggregate_replicas(self):
        """Two sources unioned, grouped-aggregated, replicated, merged —
        a full Section I pipeline."""
        left = small_stream(count=200, seed=152, disorder=0.0)
        right = small_stream(count=200, seed=153, disorder=0.0)

        def build_replica():
            union = Union(num_inputs=2)
            query = Query.combine(
                [Query.from_stream(left), Query.from_stream(right)], union
            )
            return query.then(
                GroupedCount(
                    window=100,
                    key_fn=lambda p: p[0] % 4,
                    mode=AggregateMode.AGGRESSIVE,
                )
            )

        replicas = [build_replica() for _ in range(2)]
        # The union destroys every input guarantee, but the grouped
        # aggregate re-establishes the key property on its *output*
        # (one live (window, group, count) at a time) -> LMR3.
        merge = Query.merge_with(replicas)
        assert isinstance(merge, LMergeR3)
        from repro.engine.query import play_together

        play_together(replicas, chunk=32)
        # Both replicas compute the same logical result; so must the merge.
        single = build_replica().run()
        assert merge.output.tdb() == single.tdb()

    def test_filter_pushdown_equivalence(self):
        """Filter-before-aggregate == aggregate-over-filtered replicas."""
        stream = small_stream(count=300, seed=154, disorder=0.3)
        plan_a = (
            Query.from_stream(stream)
            .then(Filter(lambda p: p[0] % 2 == 0))
            .then(GroupedCount(window=100, key_fn=lambda p: p[0] % 4))
            .run()
        )
        from repro.streams.divergence import diverge

        plan_b = (
            Query.from_stream(diverge(stream, seed=5))
            .then(Filter(lambda p: p[0] % 2 == 0))
            .then(GroupedCount(window=100, key_fn=lambda p: p[0] % 4))
            .run()
        )
        merge = LMergeR3()
        output = merge.merge([plan_a, plan_b], schedule="random", seed=9)
        assert output.tdb() == plan_a.tdb()


class TestMixedDelayModels:
    def test_latency_and_service_compose(self):
        """A link can both stall (latency) and throttle (service)."""
        sim = Simulation()
        arrivals = []
        channel = SimulatedChannel(
            sim,
            lambda element: arrivals.append(sim.now),
            delay_model=BurstyDelay(probability=1.0, mean=1.0, std=0.0),
            service_model=CongestionWindows(
                windows=[(0.0, 100.0)], mean=0.5, std=0.0
            ),
            seed=1,
        )
        elements = [Insert(i, i + 1) for i in range(4)]
        channel.feed(timed_schedule(elements, rate=10.0))
        sim.run()
        # Every element: +1s stall; the link also needs 0.5s per element.
        assert arrivals[0] == pytest.approx(1.5)
        assert arrivals[1] == pytest.approx(2.0)  # queued behind service
        assert arrivals == sorted(arrivals)
