"""Tests for exporters (repro.obs.export): Prometheus text, JSONL, and
the RunReport artifact."""

import io
import json
import math
import re

from repro.lmerge.r3 import LMergeR3
from repro.obs.export import (
    RunReport,
    instrument_value,
    prometheus_text,
    write_jsonl,
)
from repro.obs.lmerge_obs import LMergeObserver
from repro.obs.registry import MetricRegistry
from repro.obs.trace import RingTracer

from conftest import divergent_inputs, small_stream

# One Prometheus sample line: name{labels} value
_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"           # metric name
    r"(?:\{([^}]*)\})?"                       # optional label set
    r" (-?\d+(?:\.\d+)?(?:e-?\d+)?|[+-]Inf|NaN)$"  # value
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text, helps=None):
    """Parse exposition text into ({name: type}, [(name, labels, value)]).

    Pass a dict as *helps* to also collect ``# HELP`` lines into it.
    """
    types = {}
    samples = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, prom_type = line.split(" ")
            types[name] = prom_type
            continue
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            if helps is not None:
                helps[name] = help_text
            continue
        match = _SAMPLE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        name, label_blob, value = match.groups()
        labels = dict(_LABEL.findall(label_blob)) if label_blob else {}
        samples.append((name, labels, value))
    return types, samples


class TestPrometheusText:
    def test_counters_and_gauges(self):
        registry = MetricRegistry()
        registry.counter("events_total", {"op": "merge"}).inc(41)
        registry.gauge("depth").set(2.5)
        types, samples = parse_prometheus(prometheus_text(registry))
        assert types["events_total"] == "counter"
        assert types["depth"] == "gauge"
        assert ("events_total", {"op": "merge"}, "41") in samples
        assert ("depth", {}, "2.5") in samples

    def test_infinite_gauge_renders_as_prometheus_inf(self):
        registry = MetricRegistry()
        registry.gauge("frontier").set(-math.inf)
        types, samples = parse_prometheus(prometheus_text(registry))
        assert ("frontier", {}, "-Inf") in samples

    def test_histogram_as_summary(self):
        registry = MetricRegistry()
        h = registry.histogram("lat")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        types, samples = parse_prometheus(prometheus_text(registry))
        assert types["lat"] == "summary"
        by_name = {}
        for name, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        assert ("lat_count", [({}, "3")]) in by_name.items()
        assert by_name["lat_sum"] == [({}, "6.0")]
        quantiles = {labels["quantile"] for labels, _ in by_name["lat"]}
        assert quantiles == {"0.5", "0.9", "0.99"}

    def test_timeseries_total_as_counter(self):
        registry = MetricRegistry()
        registry.timeseries("lag", {"input": 0}).record(-3.0, 7)
        types, samples = parse_prometheus(prometheus_text(registry))
        assert types["lag_total"] == "counter"
        assert ("lag_total", {"input": "0"}, "7") in samples

    def test_label_escaping(self):
        registry = MetricRegistry()
        registry.counter("c", {"path": 'a"b\\c'}).inc()
        text = prometheus_text(registry)
        (line,) = [l for l in text.splitlines() if not l.startswith("#")]
        assert _SAMPLE.match(line)
        assert r"a\"b\\c" in line

    def test_empty_registry(self):
        assert prometheus_text(MetricRegistry()) == ""

    def test_type_line_emitted_once_per_name(self):
        registry = MetricRegistry()
        registry.counter("c", {"k": "a"}).inc()
        registry.counter("c", {"k": "b"}).inc()
        text = prometheus_text(registry)
        assert text.count("# TYPE c counter") == 1

    def test_help_line_before_type(self):
        registry = MetricRegistry()
        registry.counter("events_total", help="Elements seen.").inc(3)
        registry.gauge("depth").set(1)  # no help: no HELP line
        text = prometheus_text(registry)
        helps = {}
        parse_prometheus(text, helps)
        assert helps == {"events_total": "Elements seen."}
        lines = text.splitlines()
        assert lines.index("# HELP events_total Elements seen.") == (
            lines.index("# TYPE events_total counter") - 1
        )
        assert "# HELP depth" not in text

    def test_help_line_emitted_once_and_escaped(self):
        registry = MetricRegistry()
        registry.counter("c", {"k": "a"}, help="line\nbreak \\ slash").inc()
        registry.counter("c", {"k": "b"}).inc()
        text = prometheus_text(registry)
        assert text.count("# HELP c ") == 1
        assert r"line\nbreak \\ slash" in text

    def test_help_on_summary_and_timeseries(self):
        registry = MetricRegistry()
        registry.histogram("lat", help="Span latency.").observe(1.0)
        registry.timeseries("lag", help="Lag series.").record(0.0, 2)
        helps = {}
        parse_prometheus(prometheus_text(registry), helps)
        assert helps["lat"] == "Span latency."
        assert helps["lag_total"] == "Lag series."


class TestWriteJsonl:
    def test_sanitizes_infinities(self):
        buffer = io.StringIO()
        count = write_jsonl(
            [{"t": math.inf, "n": 1}, {"t": -math.inf}], buffer
        )
        assert count == 2
        rows = [json.loads(l) for l in buffer.getvalue().splitlines()]
        assert rows[0] == {"t": "inf", "n": 1}
        assert rows[1] == {"t": "-inf"}


class TestRunReport:
    def _instrumented_run(self):
        registry = MetricRegistry()
        tracer = RingTracer(capacity=128)
        merge = LMergeR3().set_tracer(tracer)
        observer = LMergeObserver(merge, registry, bucket=50.0)
        reference = small_stream(count=200, blob=2)
        inputs = divergent_inputs(reference, n=2)
        for stream_id in range(len(inputs)):
            merge.attach(stream_id)
        processed = 0
        from repro.lmerge.base import interleave_batches

        for (element,), stream_id in interleave_batches(
            inputs, "round_robin", 0, 1
        ):
            merge.process(element, stream_id)
            processed += 1
            if processed % 50 == 0:
                observer.sample(clock=processed)
        observer.sample(clock=processed)
        return merge, registry, observer, tracer

    def test_build_folds_all_sources(self):
        merge, registry, observer, tracer = self._instrumented_run()
        report = RunReport.build(
            merge=merge,
            registry=registry,
            observer=observer,
            tracer=tracer,
            wall_seconds=2.0,
            inputs=["a.jsonl", "b.jsonl"],
        )
        assert report.algorithm == merge.algorithm
        assert report.algorithm.startswith("LMR3")
        assert report.elements_in == merge.stats.elements_in
        assert report.throughput_eps == merge.stats.elements_in / 2.0
        assert report.merge_stats == merge.stats.as_dict()
        assert set(report.frontier_lag) == {"0", "1"}
        assert all(report.frontier_lag[k] for k in report.frontier_lag)
        assert report.trace["recorded"] == tracer.recorded
        assert report.metrics["counter"]  # registry snapshot present

    def test_save_load_round_trip(self, tmp_path):
        merge, registry, observer, tracer = self._instrumented_run()
        report = RunReport.build(
            merge=merge, registry=registry, observer=observer,
            wall_seconds=1.0,
        )
        path = report.save(tmp_path / "report.json")
        json.loads(path.read_text())  # valid JSON on disk
        loaded = RunReport.load(path)
        assert loaded == report

    def test_from_json_ignores_unknown_fields(self):
        report = RunReport.from_json(
            '{"algorithm": "LMR0", "someday_a_new_field": 1}'
        )
        assert report.algorithm == "LMR0"

    def test_render_mentions_key_sections(self):
        merge, registry, observer, tracer = self._instrumented_run()
        report = RunReport.build(
            merge=merge, registry=registry, observer=observer,
            tracer=tracer, wall_seconds=1.0,
        )
        report.queue_peaks = {"edge0": 12}
        text = report.render()
        assert "LMR3" in text
        assert "throughput" in text
        assert "frontier lag" in text
        assert "queue peaks" in text
        assert "duplicate hit rate" in text

    def test_render_empty_report(self):
        text = RunReport().render()
        assert "unknown algorithm" in text  # renders, no crash


class TestInstrumentValue:
    def test_subset_label_match(self):
        registry = MetricRegistry()
        registry.counter("hits", {"op": "x", "shard": "0"}).inc(5)
        report = RunReport(metrics=registry.snapshot())
        assert instrument_value(report, "counter", "hits", op="x") == 5
        assert instrument_value(report, "counter", "hits", op="y") is None
        assert instrument_value(report, "gauge", "hits") is None
