"""Tests for the ring-buffer tracer (repro.obs.trace) and the engine's
tracing hook points."""

import io
import json

import pytest

from repro.engine.operator import CollectorSink, Operator
from repro.engine.runtime import Runtime
from repro.lmerge.r3 import LMergeR3
from repro.obs.trace import NULL_TRACER, NullTracer, RingTracer
from repro.temporal.elements import Insert, Stable

from conftest import divergent_inputs, small_stream


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.record("anything", "op", n=3)  # no-op, no error
        assert NULL_TRACER.events() == []

    def test_span_is_reusable_noop(self):
        with NULL_TRACER.span("region") as s1:
            with NULL_TRACER.span("region") as s2:
                assert s1 is s2  # one shared instance, zero allocation

    def test_singleton_identity(self):
        assert isinstance(NULL_TRACER, NullTracer)


class TestRingTracer:
    def test_records_in_order(self):
        tracer = RingTracer(capacity=8, clock=FakeClock())
        tracer.record("a", "op1", n=1)
        tracer.record("b", "op2", n=2)
        events = tracer.events()
        assert [e["kind"] for e in events] == ["a", "b"]
        assert events[0]["op"] == "op1"
        assert events[1]["n"] == 2
        assert events[0]["t"] < events[1]["t"]

    def test_wraparound_keeps_newest(self):
        tracer = RingTracer(capacity=4)
        for i in range(10):
            tracer.record("e", n=i)
        assert tracer.recorded == 10
        assert tracer.dropped == 6
        assert len(tracer) == 4
        assert [e["n"] for e in tracer.events()] == [6, 7, 8, 9]

    def test_exact_capacity_boundary(self):
        tracer = RingTracer(capacity=3)
        for i in range(3):
            tracer.record("e", n=i)
        assert tracer.dropped == 0
        assert [e["n"] for e in tracer.events()] == [0, 1, 2]
        tracer.record("e", n=3)
        assert tracer.dropped == 1
        assert [e["n"] for e in tracer.events()] == [1, 2, 3]

    def test_span_records_duration(self):
        clock = FakeClock()
        tracer = RingTracer(capacity=8, clock=clock)
        with tracer.span("work", "op", tag="x"):
            pass
        (event,) = tracer.events()
        assert event["kind"] == "work"
        assert event["tag"] == "x"
        assert event["dur"] > 0

    def test_clear(self):
        tracer = RingTracer(capacity=4)
        tracer.record("e")
        tracer.clear()
        assert len(tracer) == 0 and tracer.recorded == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RingTracer(capacity=0)

    def test_export_jsonl_is_valid_json(self):
        tracer = RingTracer(capacity=8)
        tracer.record("stable", "m", t_stable=float("-inf"))
        tracer.record("data", "m", n=3)
        buffer = io.StringIO()
        assert tracer.export_jsonl(buffer) == 2
        lines = buffer.getvalue().splitlines()
        decoded = [json.loads(line) for line in lines]  # must not raise
        assert decoded[0]["t_stable"] == "-inf"
        assert decoded[1]["n"] == 3


class TestOperatorTracing:
    def test_default_operator_has_null_tracer(self):
        assert Operator("op").tracer is NULL_TRACER

    def test_receive_records_events(self):
        tracer = RingTracer(capacity=64)
        sink = CollectorSink()
        sink.tracer = tracer  # base receive() is overridden; use a plain op

        class Probe(Operator):
            def on_insert(self, element, port):
                self.emit(element)

            def on_stable(self, vc, port):
                self.emit(Stable(vc))

        probe = Probe("probe").set_tracer(tracer)
        probe.subscribe(sink)
        probe.receive(Insert("a", 1, 5))
        probe.receive(Stable(2))
        kinds = [(e["kind"], e["op"], e["cls"]) for e in tracer.events()]
        assert ("receive", "probe", "Insert") in kinds
        assert ("receive", "probe", "Stable") in kinds

    def test_receive_batch_records_summary(self):
        tracer = RingTracer(capacity=64)

        class Probe(Operator):  # noqa: REP102 — trace-capture stub
            def on_insert(self, element, port):
                self.emit(element)

        probe = Probe("probe").set_tracer(tracer)
        probe.receive_batch([Insert("a", 1, 5), Insert("b", 2, 5)])
        batch_events = [
            e for e in tracer.events() if e["kind"] == "receive_batch"
        ]
        assert len(batch_events) == 1
        assert batch_events[0]["n"] == 2
        assert batch_events[0]["out"] == 2


class TestLMergeTracing:
    def test_process_batch_span(self):
        tracer = RingTracer(capacity=256)
        merge = LMergeR3().set_tracer(tracer)
        reference = small_stream(count=120, blob=2)
        inputs = divergent_inputs(reference, n=2)
        merge.merge(inputs, schedule="sequential", batch_size=32)
        batches = [
            e for e in tracer.events() if e["kind"] == "process_batch"
        ]
        assert batches, "process_batch events missing"
        assert all(e["op"] == "lmerge" for e in batches)
        assert sum(e["n"] for e in batches) == sum(len(s) for s in inputs)
        # Output accounting in the spans matches the merge's own stats.
        assert sum(e["out"] for e in batches) == merge.stats.elements_out
        stables = [e for e in tracer.events() if e["kind"] == "stable_out"]
        assert len(stables) == merge.stats.stables_out

    def test_tracing_does_not_change_output(self):
        reference = small_stream(count=150, blob=2)
        inputs = divergent_inputs(reference, n=2)
        plain = LMergeR3()
        out_plain = plain.merge(inputs, schedule="sequential", batch_size=64)
        traced = LMergeR3().set_tracer(RingTracer(capacity=16))
        out_traced = traced.merge(inputs, schedule="sequential", batch_size=64)
        assert list(out_plain) == list(out_traced)
        assert plain.stats == traced.stats


class TestRuntimeTracing:
    def test_pump_and_drain_events(self):
        tracer = RingTracer(capacity=256)
        runtime = Runtime(batch=4, tracer=tracer)
        sink = CollectorSink()
        edge = runtime.edge_to(sink)
        for i in range(10):
            edge.receive(Insert(f"p{i}", i, i + 1))
        runtime.run()
        kinds = [e["kind"] for e in tracer.events()]
        assert "pump" in kinds and "drain" in kinds
        drained = sum(
            e["size"] for e in tracer.events() if e["kind"] == "drain"
        )
        assert drained == 10

    def test_registry_queue_gauges(self):
        from repro.obs.registry import MetricRegistry

        registry = MetricRegistry()
        runtime = Runtime(batch=4, registry=registry)
        sink = CollectorSink()
        edge = runtime.edge_to(sink)
        for i in range(6):
            edge.receive(Insert(f"p{i}", i, i + 1))
        runtime.run()
        moved = registry.counter("runtime_elements_moved_total")
        assert moved.value == 6
        peak = registry.gauge("runtime_queue_peak", {"edge": edge.name})
        assert peak.value == edge.peak_depth == 6
        depth = registry.gauge("runtime_queue_depth", {"edge": edge.name})
        assert depth.value == 0  # drained
