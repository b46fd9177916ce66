"""Distributed telemetry: live metric streaming, causal trace ids, and
the crash flight recorder.

PR 4's observability stack was single-process and end-of-run: sharded
workers (the process backend's forked children) keep their own
registries and the driver only folds shard statistics in at close.  This
module makes worker telemetry *live*:

* :class:`TelemetryEmitter` — worker side.  Wraps the worker's local
  :class:`~repro.obs.registry.MetricRegistry` (and optionally its
  :class:`~repro.obs.trace.RingTracer`) and produces bounded *delta*
  dicts: counter increases, current gauge values, histogram
  count/sum/extrema deltas plus a sample tail, and any span events
  recorded since the previous emission.  Deltas ship to the driver as
  pickled :data:`~repro.engine.shm.TELEM` frames — best-effort
  (``timeout=0``, dropped when the ring is full) so telemetry can never
  block the data path.
* :class:`TelemetryAggregator` — driver side.  Merges incoming deltas
  into the driver registry under an added ``shard`` label (counters
  ``inc``, gauges ``set``, histograms
  :meth:`~repro.obs.registry.Histogram.absorb`), forwards worker span
  events into the driver tracer so the cross-process trace stitches into
  one timeline, and measures exchange round-trip latency per batch via
  the trace ids stamped at submit.
* :class:`FlightRecorder` — a bounded in-worker ring of recent
  span/metric events, flushed to the worker's
  :class:`~repro.resilience.store.StateStore` on checkpoint and idle
  heartbeats.  When :class:`~repro.resilience.supervisor.SupervisedRuntime`
  detects a crash it reads the victim's last flush into the
  :class:`~repro.resilience.supervisor.RecoveryRecord`, so a chaos-kill
  postmortem shows the victim's final batches.

Trace ids are compact u64s: ``(shard + 1) << 40 | seq``, where *seq* is
the number the shm exchange gave the batch's frame.  A replayed frame
keeps its number, so ids are stable across restart and replay — the
flight recorder's span ids from before a crash match the driver-side
journal entries after it.

Everything here is opt-in: no emitter, no aggregator, no cost.  The
data-path guards stay the established ``registry is not None`` /
``tracer.enabled`` checks.
"""

from __future__ import annotations

import pickle
import time
from collections import OrderedDict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    LabelSet,
    MetricRegistry,
)
from repro.obs.trace import NULL_TRACER, json_safe

__all__ = [
    "FlightRecorder",
    "TelemetryAggregator",
    "TelemetryEmitter",
    "make_trace_id",
    "trace_seq",
    "trace_shard",
]

#: Trace-id layout: high bits carry ``shard + 1`` (so id 0 stays "no
#: trace"), the low 40 bits a per-shard sequence number.
_SHARD_SHIFT = 40
_SEQ_MASK = (1 << _SHARD_SHIFT) - 1

#: How many in-flight submit timestamps the aggregator retains for RTT
#: measurement; oldest entries are evicted first (their batches then
#: simply go unmeasured).
_MAX_PENDING = 4096

#: How many histogram samples one delta ships per instrument — enough to
#: keep driver-side percentiles honest without bloating TELEM frames.
_SAMPLE_TAIL = 64


def make_trace_id(shard: int, seq: int) -> int:
    """The compact u64 trace id for frame *seq* on *shard*."""
    return ((shard + 1) << _SHARD_SHIFT) | (seq & _SEQ_MASK)


def trace_shard(trace_id: int) -> int:
    """The shard that a trace id belongs to."""
    return (trace_id >> _SHARD_SHIFT) - 1


def trace_seq(trace_id: int) -> int:
    """The per-shard batch sequence number inside a trace id."""
    return trace_id & _SEQ_MASK


def _hist_tail(hist: Histogram, new: int) -> List:
    """The most recent ``min(new, window)`` samples, oldest first."""
    samples = hist._samples
    retained = len(samples)
    want = min(new, retained, _SAMPLE_TAIL)
    if want <= 0:
        return []
    if retained < hist.window:
        return list(samples[-want:])
    # Full ring: hist._next is the oldest slot, so the newest *want*
    # samples end right before it (with wraparound).
    end = hist._next
    start = end - want
    if start >= 0:
        return list(samples[start:end])
    return list(samples[start:]) + list(samples[:end])


class TelemetryEmitter:
    """Produce metric/span deltas from a worker-side registry.

    The emitter never touches the wire itself — callers ship the dicts
    (:meth:`maybe_delta` for interval-paced emission on the data path,
    :meth:`delta` for an unconditional flush before DONE).  State is the
    last shipped value per instrument key, so each delta carries only
    what changed.
    """

    def __init__(
        self,
        registry: MetricRegistry,
        shard: int,
        tracer=None,
        interval: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.registry = registry
        self.shard = shard
        self.tracer = tracer
        self.interval = interval
        self._clock = clock
        self._last_emit = clock()
        self._counters: Dict[Tuple[str, LabelSet], float] = {}
        self._hists: Dict[Tuple[str, LabelSet], Tuple[int, float]] = {}
        self._spans_seen = 0
        self.emitted = 0

    def maybe_delta(self, now: Optional[float] = None) -> Optional[dict]:
        """A delta when the interval has elapsed and something changed."""
        if now is None:
            now = self._clock()
        if now - self._last_emit < self.interval:
            return None
        return self.delta(now)

    def delta(self, now: Optional[float] = None) -> Optional[dict]:
        """Everything that changed since the last emission, or ``None``.

        Gauges ship their current value unconditionally (they are
        point-in-time reads, not accumulations); counters and histograms
        ship increases only.
        """
        self._last_emit = self._clock() if now is None else now
        counters: List = []
        gauges: List = []
        hists: List = []
        for instrument in self.registry:
            key = (instrument.name, instrument.labels)
            if isinstance(instrument, Counter):
                delta = instrument.value - self._counters.get(key, 0)
                if delta > 0:
                    counters.append([key[0], key[1], delta])
                    self._counters[key] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges.append([key[0], key[1], instrument.value])
            elif isinstance(instrument, Histogram):
                last_count, last_total = self._hists.get(key, (0, 0.0))
                count_d = instrument.count - last_count
                if count_d > 0:
                    hists.append(
                        [
                            key[0],
                            key[1],
                            count_d,
                            instrument.total - last_total,
                            instrument.min,
                            instrument.max,
                            _hist_tail(instrument, count_d),
                        ]
                    )
                    self._hists[key] = (instrument.count, instrument.total)
            # TimeSeries stay worker-local: they are end-of-run artifacts
            # and their bucket maps don't delta-merge cheaply.
        spans: List[dict] = []
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            new = tracer.recorded - self._spans_seen
            if new > 0:
                events = tracer.events()
                spans = events[-min(new, len(events)):]
                self._spans_seen = tracer.recorded
        if not (counters or gauges or hists or spans):
            return None
        self.emitted += 1
        return {
            "shard": self.shard,
            "seq": self.emitted,
            "counters": counters,
            "gauges": gauges,
            "hists": hists,
            "spans": spans,
        }


class TelemetryAggregator:
    """Merge worker deltas into the driver registry, live.

    Worker instruments land under their own name and labels plus a
    ``shard`` label (unless the worker already labeled them).  Span
    events forward into the driver tracer with their shard attached, so
    ``trace.jsonl`` holds one stitched cross-process timeline.

    The aggregator also times the exchange: the driver calls
    :meth:`note_submit` with the id it stamps on a batch
    (:func:`make_trace_id` of its shard and frame number) and
    :meth:`note_output` when the batch's result returns, feeding the
    ``trace_stage_seconds{stage="exchange"}`` histogram with per-batch
    round-trip wall latency.
    """

    def __init__(self, registry: MetricRegistry, tracer=None):
        self.registry = registry
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.merged_frames = 0
        self._pending: "OrderedDict[int, float]" = OrderedDict()
        self._rtt = registry.histogram(
            "trace_stage_seconds",
            {"stage": "exchange"},
            help="Per-batch wall latency through a pipeline stage.",
        )

    # -- exchange round trips (driver side) ----------------------------

    def note_submit(self, trace_id: int) -> None:
        """Remember when *trace_id*'s batch entered the exchange."""
        pending = self._pending
        pending[trace_id] = perf_counter()
        while len(pending) > _MAX_PENDING:
            pending.popitem(last=False)

    def note_output(self, trace_id: int) -> None:
        """A traced batch's output came back: observe its round trip."""
        started = self._pending.pop(trace_id, None)
        if started is None:
            return
        elapsed = perf_counter() - started
        self._rtt.observe(elapsed)
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(
                "span",
                "exchange",
                tid=trace_id,
                shard=trace_shard(trace_id),
                dur=elapsed,
            )

    # -- delta merging --------------------------------------------------

    def merge(self, delta: dict) -> None:
        """Fold one worker delta into the driver registry and tracer."""
        registry = self.registry
        shard = delta.get("shard", -1)
        self.merged_frames += 1
        registry.counter(
            "telemetry_frames_total",
            {"shard": shard},
            help="TELEM deltas merged into the driver aggregate.",
        ).inc()
        for name, labels, value in delta.get("counters", ()):
            registry.counter(name, self._shardify(labels, shard)).inc(value)
        for name, labels, value in delta.get("gauges", ()):
            registry.gauge(name, self._shardify(labels, shard)).set(value)
        for entry in delta.get("hists", ()):
            name, labels, count_d, sum_d, lo, hi, samples = entry
            registry.histogram(name, self._shardify(labels, shard)).absorb(
                count_d, sum_d, samples, min_value=lo, max_value=hi
            )
        tracer = self.tracer
        if tracer.enabled:
            for event in delta.get("spans", ()):
                fields = {
                    k: v for k, v in event.items() if k not in ("kind", "op")
                }
                fields.setdefault("shard", shard)
                fields["remote"] = True
                tracer.record(
                    event.get("kind", "span"), event.get("op", ""), **fields
                )

    @staticmethod
    def _shardify(labels: LabelSet, shard: int) -> Dict[str, object]:
        out = dict(labels)
        out.setdefault("shard", shard)
        return out


class FlightRecorder:
    """A bounded ring of a worker's most recent telemetry events.

    Cheap enough to stay always-on in supervised workers (one dict
    append per batch): crashes are exactly the runs where opt-in
    diagnostics would have been off.  The supervisor flushes the ring to
    the worker's :class:`~repro.resilience.store.StateStore` at
    checkpoint boundaries and on idle heartbeats (only when dirty), and
    reads the victim's last flush into the
    :class:`~repro.resilience.supervisor.RecoveryRecord` after a crash.
    """

    #: StateStore key the recorder flushes under.
    STORE_KEY = "flight"

    def __init__(self, capacity: int = 64, clock=time.time):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self.recorded = 0
        self._clock = clock
        self._ring: List[Optional[dict]] = [None] * capacity
        self._next = 0
        self._dirty = False

    def record(self, kind: str, **fields) -> None:
        # Sanitized at record time (infinite frontiers are routine), so
        # a crash dump pastes straight into the RecoveryRecord JSON.
        event = {"t": self._clock(), "kind": kind}
        for key, value in fields.items():
            event[key] = json_safe(value)
        self._ring[self._next] = event
        self._next = (self._next + 1) % self.capacity
        self.recorded += 1
        self._dirty = True

    @property
    def dirty(self) -> bool:
        """Whether events were recorded since the last flush."""
        return self._dirty

    def snapshot(self) -> List[dict]:
        """Retained events, oldest first."""
        if self.recorded < self.capacity:
            return [e for e in self._ring[: self._next] if e is not None]
        return [
            e
            for e in self._ring[self._next :] + self._ring[: self._next]
            if e is not None
        ]

    def flush(self, store) -> bool:
        """Write the ring to *store* under :attr:`STORE_KEY` when dirty.

        Returns whether a write happened.  The store is the worker's own
        single-writer :class:`~repro.resilience.store.StateStore`; the
        driver only reads the key after the worker is confirmed dead.
        """
        if not self._dirty:
            return False
        store.put(self.STORE_KEY, pickle.dumps(self.snapshot()))
        self._dirty = False
        return True

    @classmethod
    def read(cls, store) -> List[dict]:
        """The last flushed ring from *store* (empty when never flushed)."""
        blob = store.get(cls.STORE_KEY)
        if not blob:
            return []
        try:
            events = pickle.loads(blob)
        except Exception:  # pragma: no cover - torn/foreign blob
            return []
        return list(events) if isinstance(events, list) else []
