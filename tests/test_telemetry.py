"""The distributed telemetry pipeline: emitter deltas, aggregator
merges, trace-id plumbing, the crash flight recorder, and a live
process-backend run whose per-shard series advance *during* the merge.
"""

import math

import pytest

from repro.engine.parallel import available_cores
from repro.lmerge.r3 import LMergeR3
from repro.lmerge.sharded import shard
from repro.obs.registry import MetricRegistry
from repro.obs.telemetry import (
    _MAX_PENDING,
    FlightRecorder,
    TelemetryAggregator,
    TelemetryEmitter,
    make_trace_id,
    trace_seq,
    trace_shard,
)
from repro.obs.trace import RingTracer
from repro.resilience.store import StateStore


from conftest import data_by_key, divergent_inputs, small_stream


class TestTraceIds:
    def test_round_trip(self):
        for shard_id in (0, 1, 7, 200):
            for seq in (0, 1, 99, (1 << 40) - 1):
                tid = make_trace_id(shard_id, seq)
                assert trace_shard(tid) == shard_id
                assert trace_seq(tid) == seq

    def test_zero_is_reserved_for_untraced(self):
        # Batch.trace_id == 0 means "no trace": even shard 0 / seq 0
        # must produce a nonzero id.
        assert make_trace_id(0, 0) != 0

    def test_ids_unique_across_shards(self):
        ids = {make_trace_id(s, q) for s in range(8) for q in range(64)}
        assert len(ids) == 8 * 64


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now


class TestTelemetryEmitter:
    def test_counters_ship_increases_only(self):
        registry = MetricRegistry()
        emitter = TelemetryEmitter(registry, shard=1, clock=FakeClock())
        registry.counter("events_total").inc(5)
        delta = emitter.delta()
        assert delta["shard"] == 1
        assert ["events_total", (), 5] in delta["counters"]
        # Unchanged since: the next delta must not repeat the 5.
        assert emitter.delta() is None
        registry.counter("events_total").inc(2)
        assert emitter.delta()["counters"] == [["events_total", (), 2]]

    def test_gauges_ship_current_value(self):
        registry = MetricRegistry()
        emitter = TelemetryEmitter(registry, shard=0, clock=FakeClock())
        registry.gauge("depth").set(4)
        assert emitter.delta()["gauges"] == [["depth", (), 4]]
        registry.gauge("depth").set(2)  # decreases ship too
        assert emitter.delta()["gauges"] == [["depth", (), 2]]

    def test_histogram_delta_and_sample_tail(self):
        registry = MetricRegistry()
        emitter = TelemetryEmitter(registry, shard=0, clock=FakeClock())
        hist = registry.histogram("lat")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        (entry,) = emitter.delta()["hists"]
        name, labels, count_d, sum_d, lo, hi, samples = entry
        assert (name, count_d, sum_d) == ("lat", 3, 6.0)
        assert (lo, hi) == (1.0, 3.0)
        assert samples == [1.0, 2.0, 3.0]
        hist.observe(9.0)
        (entry,) = emitter.delta()["hists"]
        assert entry[2] == 1 and entry[6] == [9.0]

    def test_interval_pacing(self):
        clock = FakeClock()
        registry = MetricRegistry()
        emitter = TelemetryEmitter(
            registry, shard=0, interval=0.25, clock=clock
        )
        registry.counter("c").inc()
        assert emitter.maybe_delta() is None  # interval not yet elapsed
        clock.now = 0.3
        assert emitter.maybe_delta() is not None
        registry.counter("c").inc()
        clock.now = 0.4
        assert emitter.maybe_delta() is None  # re-paced from last emit

    def test_spans_ship_once(self):
        registry = MetricRegistry()
        tracer = RingTracer(capacity=16, clock=FakeClock())
        emitter = TelemetryEmitter(
            registry, shard=0, tracer=tracer, clock=FakeClock()
        )
        tracer.record("span", "merge", tid=7)
        delta = emitter.delta()
        assert [e["op"] for e in delta["spans"]] == ["merge"]
        assert emitter.delta() is None  # already shipped

    def test_empty_delta_is_none(self):
        emitter = TelemetryEmitter(
            MetricRegistry(), shard=0, clock=FakeClock()
        )
        assert emitter.delta() is None


class TestTelemetryAggregator:
    def test_merge_adds_shard_label(self):
        registry = MetricRegistry()
        agg = TelemetryAggregator(registry)
        agg.merge(
            {
                "shard": 2,
                "counters": [["events_total", (), 5]],
                "gauges": [["depth", (("merge", "m"),), 3]],
                "hists": [["lat", (), 2, 5.0, 1.0, 4.0, [1.0, 4.0]]],
            }
        )
        assert registry.counter("events_total", {"shard": 2}).value == 5
        assert (
            registry.gauge("depth", {"merge": "m", "shard": 2}).value == 3
        )
        hist = registry.histogram("lat", {"shard": 2})
        assert (hist.count, hist.total, hist.min, hist.max) == (
            2, 5.0, 1.0, 4.0,
        )
        assert registry.counter(
            "telemetry_frames_total", {"shard": 2}
        ).value == 1

    def test_merge_respects_existing_shard_label(self):
        registry = MetricRegistry()
        agg = TelemetryAggregator(registry)
        agg.merge(
            {"shard": 3, "counters": [["c", (("shard", 9),), 1]]}
        )
        # The worker's own shard label wins (setdefault, not overwrite).
        assert registry.counter("c", {"shard": 9}).value == 1

    def test_counters_accumulate_across_deltas(self):
        registry = MetricRegistry()
        agg = TelemetryAggregator(registry)
        for _ in range(3):
            agg.merge({"shard": 0, "counters": [["c", (), 2]]})
        assert registry.counter("c", {"shard": 0}).value == 6
        assert agg.merged_frames == 3

    def test_spans_forward_as_remote(self):
        registry = MetricRegistry()
        tracer = RingTracer(capacity=8)
        agg = TelemetryAggregator(registry, tracer=tracer)
        agg.merge(
            {
                "shard": 1,
                "spans": [{"t": 0.5, "kind": "span", "op": "batch", "tid": 9}],
            }
        )
        (event,) = tracer.events()
        assert event["op"] == "batch"
        assert event["remote"] is True
        assert event["shard"] == 1
        assert event["tid"] == 9

    def test_submit_output_pairing_feeds_rtt(self):
        registry = MetricRegistry()
        tracer = RingTracer(capacity=8)
        agg = TelemetryAggregator(registry, tracer=tracer)
        tid = make_trace_id(0, 1)
        agg.note_submit(tid)
        agg.note_output(tid)
        hist = registry.histogram("trace_stage_seconds", {"stage": "exchange"})
        assert hist.count == 1
        (event,) = tracer.events()
        assert event["op"] == "exchange" and event["tid"] == tid
        agg.note_output(tid)  # unknown/already-closed ids are ignored
        assert hist.count == 1

    def test_pending_bounded(self):
        agg = TelemetryAggregator(MetricRegistry())
        for seq in range(_MAX_PENDING + 10):
            agg.note_submit(make_trace_id(0, seq))
        assert len(agg._pending) == _MAX_PENDING
        assert next(iter(agg._pending)) == make_trace_id(0, 10)  # oldest evicted


class TestFlightRecorder:
    def test_snapshot_oldest_first_and_wraps(self):
        flight = FlightRecorder(capacity=3, clock=FakeClock())
        for seq in range(5):
            flight.record("batch", seq=seq)
        assert [e["seq"] for e in flight.snapshot()] == [2, 3, 4]
        assert flight.recorded == 5

    def test_fields_sanitized_for_json(self):
        flight = FlightRecorder(capacity=4, clock=FakeClock())
        flight.record("batch", stable=-math.inf)
        (event,) = flight.snapshot()
        assert event["stable"] == "-inf"  # json_safe string, not float

    def test_flush_and_read_round_trip(self, tmp_path):
        flight = FlightRecorder(capacity=4, clock=FakeClock())
        store = StateStore(str(tmp_path / "shard-0"), fsync=False)
        assert flight.flush(store) is False  # nothing recorded: no write
        flight.record("batch", seq=1, tid=make_trace_id(0, 1))
        assert flight.dirty
        assert flight.flush(store) is True
        assert not flight.dirty
        assert flight.flush(store) is False  # clean: no rewrite
        store.close()

        reopened = StateStore(str(tmp_path / "shard-0"), fsync=False)
        events = FlightRecorder.read(reopened)
        reopened.close()
        assert [e["seq"] for e in events] == [1]

    def test_read_never_flushed_store(self, tmp_path):
        store = StateStore(str(tmp_path / "empty"), fsync=False)
        assert FlightRecorder.read(store) == []
        store.close()


@pytest.mark.skipif(
    available_cores() < 2,
    reason="live telemetry needs real process workers; host has <2 cores",
)
class TestLiveTelemetry:
    """End-to-end: a process-backend sharded merge streams TELEM frames
    and the driver registry shows per-shard series advancing mid-run."""

    def _run(self, registry, tracer=None, telemetry_interval=0.0):
        reference = small_stream(count=600, seed=11, disorder=0.3, blob=2)
        inputs = divergent_inputs(reference, n=2)
        plan = shard(
            LMergeR3,
            2,
            backend="process",
            registry=registry,
            telemetry_interval=telemetry_interval,
            tracer=tracer,
        )
        output = plan.merge(inputs, schedule="round_robin")
        return plan, output, reference

    def test_per_shard_series_advance_and_output_unchanged(self):
        baseline_registry = MetricRegistry()
        _, baseline_out, _ = self._run(baseline_registry)

        registry = MetricRegistry()
        tracer = RingTracer(capacity=16384)
        plan, output, reference = self._run(
            registry, tracer=tracer, telemetry_interval=0.0001
        )

        # Telemetry is observation only: the merged stream carries the
        # same per-key element sequences and reconstitutes to the same
        # TDB.  (Raw order across shards varies with poll timing in any
        # process-backend run, telemetry or not.)
        assert data_by_key(output) == data_by_key(baseline_out)
        assert output.tdb() == baseline_out.tdb() == reference.tdb()

        # Worker deltas landed under per-shard labels while running.
        frames = [
            registry.counter(
                "telemetry_frames_total", {"shard": s}
            ).value
            for s in range(2)
        ]
        assert all(f > 0 for f in frames), frames
        for s in range(2):
            assert registry.counter(
                "lmerge_inserts_in_total",
                {"merge": "lmerge", "shard": s},
            ).value > 0
            # Worker-side index gauges are visible at the driver.
            assert registry.gauge(
                "lmerge_index_nodes", {"merge": "lmerge", "shard": s}
            ).value >= 0

        # The exchange RTT histogram closed submit->output loops.
        rtt = registry.histogram(
            "trace_stage_seconds", {"stage": "exchange"}
        )
        assert rtt.count > 0

        # Worker spans stitched into the driver tracer as remote events.
        remote = [e for e in tracer.events() if e.get("remote")]
        assert remote
        shards_seen = {e.get("shard") for e in remote}
        assert shards_seen & {0, 1}

    def test_mid_run_scrape_sees_live_queue_depth(self):
        """Satellite regression: shard_queue_depth/peak used to be
        sampled only in _collect, after the exchange drained — every
        mid-run scrape read zero.  The TELEM-merge hook samples while
        the rings are loaded, so the peak must exceed the final depth
        floor for at least one shard."""
        registry = MetricRegistry()
        plan, _, _ = self._run(registry, telemetry_interval=0.0001)
        assert plan._runtime.on_telemetry is not None
        peaks = [
            registry.gauge(
                "shard_queue_peak", {"merge": plan.name, "shard": s}
            ).value
            for s in range(2)
        ]
        depths = [
            registry.gauge(
                "shard_queue_depth", {"merge": plan.name, "shard": s}
            ).value
            for s in range(2)
        ]
        # The queues existed (gauges registered) and saw traffic on at
        # least one shard while loaded.
        assert len(peaks) == len(depths) == 2
        assert any(p > 0 for p in peaks), (peaks, depths)
