"""Watermarks, heartbeats, and stable-stripping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams.generator import GeneratorConfig, StreamGenerator
from repro.streams.punctuation import (
    WatermarkTracker,
    strip_stables,
    with_heartbeats,
)
from repro.streams.stream import PhysicalStream
from repro.temporal.elements import Adjust, Insert, Stable
from repro.temporal.time import INFINITY, MINUS_INFINITY


class TestWatermarkTracker:
    def test_initial_state(self):
        tracker = WatermarkTracker(max_delay=10)
        assert tracker.frontier == MINUS_INFINITY
        assert tracker.watermark() == MINUS_INFINITY
        assert tracker.safe_stable() is None

    def test_watermark_trails_frontier(self):
        tracker = WatermarkTracker(max_delay=10)
        tracker.observe(Insert("a", 100))
        assert tracker.frontier == 100
        assert tracker.watermark() == 90
        assert tracker.safe_stable() == Stable(90)

    def test_frontier_monotone(self):
        tracker = WatermarkTracker(max_delay=10)
        tracker.observe(Insert("a", 100))
        tracker.observe(Insert("b", 50))  # disordered element
        assert tracker.frontier == 100

    def test_adjust_moves_frontier(self):
        tracker = WatermarkTracker(max_delay=0)
        tracker.observe(Adjust("a", 70, 80, 90))
        assert tracker.frontier == 70

    def test_stable_ignored(self):
        tracker = WatermarkTracker(max_delay=0)
        tracker.observe(Stable(500))
        assert tracker.frontier == MINUS_INFINITY

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            WatermarkTracker(max_delay=-1)


class TestHeartbeats:
    def make_disordered(self, seed=0):
        config = GeneratorConfig(
            count=400,
            seed=seed,
            disorder=0.3,
            disorder_window=50,
            stable_freq=0.0,
            payload_blob_bytes=4,
        )
        return StreamGenerator(config).generate()

    def test_heartbeats_added_and_valid(self):
        stream = self.make_disordered()
        pulsed = with_heartbeats(stream, max_delay=50, every=20)
        assert pulsed.count_stables() > 5
        pulsed.tdb()  # strict: every heartbeat honours the element order

    def test_preserves_logical_stream(self):
        stream = self.make_disordered()
        pulsed = with_heartbeats(stream, max_delay=50, every=20)
        assert pulsed.tdb() == stream.tdb()

    def test_understated_delay_detected(self):
        """Claiming a tighter disorder bound than the data honours fails
        fast instead of emitting corrupt punctuation."""
        stream = self.make_disordered()
        with pytest.raises(ValueError):
            with_heartbeats(stream, max_delay=1, every=5)

    def test_final_infinity_optional(self):
        stream = self.make_disordered()
        pulsed = with_heartbeats(
            stream, max_delay=50, every=20, final_infinity=False
        )
        assert pulsed.max_stable() != INFINITY

    def test_every_validation(self):
        with pytest.raises(ValueError):
            with_heartbeats(PhysicalStream(), max_delay=1, every=0)

    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 1000),
        every=st.integers(5, 60),
        slack=st.integers(0, 100),
    )
    def test_heartbeats_always_valid(self, seed, every, slack):
        """Property: for any cadence and any slack beyond the generator's
        true disorder window, the pulsed stream is valid and equivalent."""
        config = GeneratorConfig(
            count=150,
            seed=seed,
            disorder=0.4,
            disorder_window=40,
            stable_freq=0.0,
            payload_blob_bytes=2,
        )
        stream = StreamGenerator(config).generate()
        pulsed = with_heartbeats(stream, max_delay=40 + slack, every=every)
        assert pulsed.tdb() == stream.tdb()


class TestStripStables:
    def test_strips_punctuation(self):
        stream = PhysicalStream(
            [Insert("a", 1, 5), Stable(3), Insert("b", 4, 9), Stable(INFINITY)]
        )
        stripped = strip_stables(stream, keep_final_infinity=False)
        assert stripped.count_stables() == 0

    def test_keeps_final_infinity(self):
        stream = PhysicalStream(
            [Insert("a", 1, 5), Stable(3), Stable(INFINITY)]
        )
        stripped = strip_stables(stream)
        assert list(stripped) == [Insert("a", 1, 5), Stable(INFINITY)]

    def test_heartbeat_cadence_divergence_merges(self):
        """Streams re-punctuated at different cadences are still mutually
        consistent inputs for LMerge."""
        from repro.lmerge.r3 import LMergeR3

        config = GeneratorConfig(
            count=400, seed=7, disorder=0.3, disorder_window=50,
            stable_freq=0.0, payload_blob_bytes=4,
        )
        stream = StreamGenerator(config).generate()
        inputs = [
            with_heartbeats(stream, max_delay=60, every=cadence)
            for cadence in (10, 35, 80)
        ]
        merge = LMergeR3()
        output = merge.merge(inputs, schedule="random", seed=2)
        assert output.tdb() == stream.tdb()
