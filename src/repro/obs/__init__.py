"""repro.obs — engine-wide observability: metrics, tracing, reports.

The paper's entire evaluation (Section VI) is an observability exercise —
throughput timelines, memory curves, chattiness, frontier lag, feedback
timing.  This package makes those first-class and *opt-in*:

* :mod:`repro.obs.registry` — labeled counters, gauges, histograms, and
  time series with snapshot/reset semantics (:class:`MetricRegistry`);
* :mod:`repro.obs.trace` — per-operator event tracing into a bounded ring
  buffer (:class:`RingTracer`), with a :class:`NullTracer` fast path whose
  disabled cost is one branch per call;
* :mod:`repro.obs.lmerge_obs` — merge-specific gauges: per-input frontier
  lag, current leader, duplicate-elimination hit rate, feedback signals,
  per-shard queue depth and CTI lag;
* :mod:`repro.obs.export` — Prometheus text format, JSONL event logs, and
  the :class:`RunReport` JSON document (rendered by ``python -m repro
  report``);
* :mod:`repro.obs.telemetry` — the distributed pipeline: worker-side
  :class:`TelemetryEmitter` snapshot deltas over TELEM frames, the
  driver-side :class:`TelemetryAggregator` (per-shard labels, stitched
  traces), and the crash :class:`FlightRecorder`;
* :mod:`repro.obs.http` — a stdlib ``/metrics`` + ``/health`` endpoint
  (:class:`MetricsServer`), scraped live by ``repro top``
  (:mod:`repro.obs.top`).

Nothing here is active by default: operators carry the shared
:data:`NULL_TRACER` and hook points guard on ``registry is not None``,
so the uninstrumented hot paths stay within the 5% budget asserted by
``bench_hotpath``.  The merge code imports only the submodules it
uses, and each name here loads its submodule on first access, so
``http.server``, ``ssl`` and ``email`` load only with
:class:`MetricsServer`.  See docs/OBSERVABILITY.md.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.export import (
        RunReport,
        instrument_value,
        prometheus_text,
        write_jsonl,
    )
    from repro.obs.http import MetricsServer
    from repro.obs.lmerge_obs import (
        LMergeObserver,
        ShardObserver,
        count_feedback,
        frontier_lag,
    )
    from repro.obs.registry import (
        Counter,
        Gauge,
        Histogram,
        MetricRegistry,
        TimeSeries,
    )
    from repro.obs.telemetry import (
        FlightRecorder,
        TelemetryAggregator,
        TelemetryEmitter,
        make_trace_id,
        trace_seq,
        trace_shard,
    )
    from repro.obs.trace import NULL_TRACER, NullTracer, RingTracer
else:
    __getattr__, __dir__, __all__ = lazy_exports(__name__, __file__)
