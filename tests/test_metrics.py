"""Tests for metric probes."""

import pytest

from repro.metrics.collector import AppTimeLatencyProbe, ThroughputTimeline
from repro.temporal.elements import Insert, Stable


class TestThroughputTimeline:
    def test_bucketing(self):
        timeline = ThroughputTimeline(bucket=1.0)
        timeline.record(0.2)
        timeline.record(0.8)
        timeline.record(2.5)
        assert timeline.series() == [(0.0, 2), (1.0, 0), (2.0, 1)]
        assert timeline.total == 3

    def test_negative_sim_time_buckets_survive(self):
        """Regression: series() used to start at bucket 0, silently
        dropping everything recorded at negative simulation time."""
        timeline = ThroughputTimeline(bucket=1.0)
        timeline.record(-2.5, count=3)
        timeline.record(0.5)
        assert timeline.series() == [(-3.0, 3), (-2.0, 0), (-1.0, 0), (0.0, 1)]
        assert timeline.total == 4
        assert timeline.rates() == [3.0, 0.0, 0.0, 1.0]

    def test_all_negative_buckets(self):
        timeline = ThroughputTimeline(bucket=1.0)
        timeline.record(-5.0, count=2)
        assert timeline.series() == [(-5.0, 2)]

    def test_rates(self):
        timeline = ThroughputTimeline(bucket=0.5)
        timeline.record(0.1, count=5)
        assert timeline.rates() == [10.0]

    def test_empty_series(self):
        assert ThroughputTimeline().series() == []
        assert ThroughputTimeline().coefficient_of_variation() == 0.0

    def test_cv_zero_for_steady_rate(self):
        timeline = ThroughputTimeline(bucket=1.0)
        for second in range(10):
            timeline.record(second + 0.5, count=100)
        assert timeline.coefficient_of_variation() == pytest.approx(0.0)

    def test_cv_positive_for_bursty_rate(self):
        timeline = ThroughputTimeline(bucket=1.0)
        for second in range(10):
            timeline.record(second + 0.5, count=200 if second % 2 else 1)
        assert timeline.coefficient_of_variation() > 0.5

    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            ThroughputTimeline(bucket=0)


class TestAppTimeLatencyProbe:
    def test_latency_measured_against_frontier(self):
        probe = AppTimeLatencyProbe()
        probe.observe_input(Insert("a", 100, 200))
        probe.observe_output(Insert("a", 90, 200))
        assert probe.latencies == [10]

    def test_frontier_monotone(self):
        probe = AppTimeLatencyProbe()
        probe.observe_input(Insert("a", 100, 200))
        probe.observe_input(Insert("b", 50, 200))  # disordered: no regression
        probe.observe_output(Insert("b", 50, 200))
        assert probe.latencies == [50]

    def test_stables_ignored(self):
        probe = AppTimeLatencyProbe()
        probe.observe_input(Stable(500))
        probe.observe_input(Insert("a", 100, 200))
        probe.observe_output(Stable(500))
        assert probe.latencies == []

    def test_percentile_and_mean(self):
        probe = AppTimeLatencyProbe()
        probe.observe_input(Insert("x", 100, 200))
        for vs in (90, 80, 70, 60):
            probe.observe_output(Insert("y", vs, 200))
        assert probe.mean == pytest.approx(25.0)
        assert probe.percentile(0.99) == 40
        assert probe.percentile(0.0) == 10

    def test_percentile_boundaries_nearest_rank(self):
        """Regression: the percentile is ceil-based nearest rank — the
        2-sample median is the lower sample and q=1.0 is exactly the
        max (the old index arithmetic overshot on small samples)."""
        probe = AppTimeLatencyProbe()
        probe.observe_input(Insert("x", 100, 200))
        probe.observe_output(Insert("y", 90, 200))   # latency 10
        probe.observe_output(Insert("y", 70, 200))   # latency 30
        assert probe.percentile(0.5) == 10
        assert probe.percentile(0.51) == 30
        assert probe.percentile(1.0) == 30
        assert probe.percentile(0.0) == 10

    def test_percentile_single_sample(self):
        probe = AppTimeLatencyProbe()
        probe.observe_input(Insert("x", 100, 200))
        probe.observe_output(Insert("y", 95, 200))
        for q in (0.0, 0.5, 0.99, 1.0):
            assert probe.percentile(q) == 5

    def test_empty_probe(self):
        probe = AppTimeLatencyProbe()
        assert probe.mean == 0.0
        assert probe.percentile(0.5) == 0.0
