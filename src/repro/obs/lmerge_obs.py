"""LMerge-specific gauges: frontier lag, leadership, duplicate elimination,
feedback, and per-shard health.

The paper's evaluation watches a handful of merge-specific signals
(Figures 5, 9, 10): how far each input's stable point trails the merged
output, which input currently leads, how many redundant inserts the merge
absorbed, and when fast-forward feedback fires.  This module packages
those as registry instruments:

* :class:`LMergeObserver` — samples one :class:`~repro.lmerge.base.LMergeBase`
  (or anything with the same surface) into gauges and time series.
  Sampling is pull-based: the driver calls :meth:`LMergeObserver.sample`
  at whatever cadence it likes (every K elements, every batch), so an
  unobserved merge pays nothing.
* :class:`ShardObserver` — samples a
  :class:`~repro.lmerge.sharded.ShardedLMerge` plan: per-shard input-queue
  depth (from :meth:`~repro.engine.parallel.ParallelRuntime.queue_depths`),
  per-shard CTI frontier, and each shard's lag behind the most advanced
  shard (stragglers are what hold the combined CTI back).
* :func:`count_feedback` — wraps an operator's ``on_feedback`` so honored
  signals are counted (the emitting side is counted by the observer's
  feedback listener).

Metric names use the ``lmerge_``/``shard_`` prefixes; see
docs/OBSERVABILITY.md for the full catalogue.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.obs.registry import MetricRegistry, TimeSeries

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.operator import Operator
    from repro.lmerge.base import LMergeBase, MergeStats
    from repro.lmerge.sharded import ShardedLMerge


def frontier_lag(output_frontier: float, input_frontier: float) -> float:
    """How far an input's stable point trails the merged output's.

    Clamped at zero: the leading input is *ahead* of the output (the
    output can promise at most what some input promised), and a negative
    lag carries no tuning signal.  Before any punctuation both frontiers
    are ``-inf`` and the lag is defined as 0.
    """
    if output_frontier == -math.inf:
        return 0.0
    if input_frontier == -math.inf:
        return math.inf
    return max(0.0, output_frontier - input_frontier)


class LMergeObserver:
    """Sample one merge's health into a registry.

    Instruments (all labeled ``merge=<name>``):

    * ``lmerge_frontier_lag{input=}`` gauge + ``lmerge_frontier_lag_series``
      time series — per-input lag vs. the merged output frontier;
    * ``lmerge_leading{input=}`` gauge — 1 on the current leading stream;
    * ``lmerge_inserts_in_total`` / ``lmerge_duplicates_dropped_total``
      counters — duplicate-elimination accounting from
      :class:`~repro.lmerge.base.MergeStats` deltas (hit rate =
      dropped / inserts in);
    * ``lmerge_output_frontier`` gauge — the merged stable point;
    * ``lmerge_feedback_emitted_total{input=}`` counter — fast-forward
      signals raised toward each lagging input (Section V-D);
    * ``lmerge_index_nodes`` / ``lmerge_index_bytes`` gauges — resident
      merge-index size (the bounded-state signal of PR 8: flat under
      reclamation, O(stream) on the seed path);
    * ``lmerge_pruned_nodes_total`` counter — settled-node reclamation,
      from merge-counter deltas.
    """

    def __init__(
        self,
        merge: "LMergeBase",
        registry: MetricRegistry,
        bucket: float = 1.0,
    ):
        self.merge = merge
        self.registry = registry
        self.bucket = bucket
        self._labels = {"merge": getattr(merge, "name", "lmerge")}
        self._last_inserts_in = merge.stats.inserts_in
        self._last_inserts_out = merge.stats.inserts_out
        self._last_pruned = getattr(merge, "pruned_nodes", 0)
        self.samples = 0
        # Every instrument sample() writes is resolved once: here, or for
        # the per-input ones when the input is first seen.  (A registry
        # reset() zeroes instruments and keeps these handles live.)
        labels = self._labels
        self._output_frontier = registry.gauge(
            "lmerge_output_frontier",
            labels,
            help="Latest Stable(t) the merge has emitted.",
        )
        self._inserts_in = registry.counter(
            "lmerge_inserts_in_total",
            labels,
            help="Input inserts presented to the merge.",
        )
        self._duplicates_dropped = registry.counter(
            "lmerge_duplicates_dropped_total",
            labels,
            help="Redundant presentations absorbed by duplicate elimination.",
        )
        self._index_nodes = registry.gauge(
            "lmerge_index_nodes", labels, help="Resident merge-index nodes."
        )
        self._index_bytes = registry.gauge(
            "lmerge_index_bytes",
            labels,
            help="Approximate resident merge-index bytes.",
        )
        self._pruned_nodes = registry.counter("lmerge_pruned_nodes_total", labels)
        #: stream id -> its (lag gauge, leading gauge), and its lag series
        #: once it has a finite lag to plot.
        self._input_gauges: Dict[object, tuple] = {}
        self._lag_series: Dict[object, TimeSeries] = {}
        if hasattr(merge, "add_feedback_listener"):
            merge.add_feedback_listener(self._on_feedback_emitted)

    def _on_feedback_emitted(self, stream_id, horizon) -> None:
        self.registry.counter(
            "lmerge_feedback_emitted_total",
            {**self._labels, "input": stream_id},
        ).inc()
        self.registry.gauge(
            "lmerge_feedback_horizon", self._labels
        ).set(horizon)

    def sample(self, clock: Optional[float] = None) -> Dict[object, float]:
        """Take one sample; returns the per-input lag map just recorded.

        *clock* positions the time-series bucket — pass the simulation
        clock, elements processed, or wall seconds, whichever timeline the
        run is plotted against.  Defaults to the sample ordinal.
        """
        merge = self.merge
        if clock is None:
            clock = float(self.samples)
        self.samples += 1

        frontier = merge.max_stable
        self._output_frontier.set(frontier)
        leader = merge.leading_stream()
        lags: Dict[object, float] = {}
        for stream_id in merge.input_ids:
            gauges = self._input_gauges.get(stream_id)
            if gauges is None:
                labels = {**self._labels, "input": stream_id}
                gauges = self._input_gauges[stream_id] = (
                    self.registry.gauge(
                        "lmerge_frontier_lag",
                        labels,
                        help="How far this input's stable point trails the "
                        "output frontier.",
                    ),
                    self.registry.gauge("lmerge_leading", labels),
                )
            lag = frontier_lag(frontier, merge.input_stable(stream_id))
            lags[stream_id] = lag
            gauges[0].set(lag)
            gauges[1].set(1 if stream_id == leader else 0)
            if lag != math.inf:
                series = self._lag_series.get(stream_id)
                if series is None:
                    series = self._lag_series[stream_id] = self.registry.timeseries(
                        "lmerge_frontier_lag_series",
                        {**self._labels, "input": stream_id},
                        bucket=self.bucket,
                    )
                series.record(clock, lag)

        # Duplicate elimination from MergeStats deltas: inserts absorbed
        # without a matching output insert were redundant presentations of
        # events another input already supplied.
        stats = merge.stats
        d_in = stats.inserts_in - self._last_inserts_in
        d_out = stats.inserts_out - self._last_inserts_out
        self._last_inserts_in = stats.inserts_in
        self._last_inserts_out = stats.inserts_out
        if d_in > 0:
            self._inserts_in.inc(d_in)
            if d_in > d_out:
                self._duplicates_dropped.inc(d_in - d_out)

        # Bounded-state accounting (PR 8): resident index size as gauges,
        # reclamation as a counter delta (registry counters are
        # increase-only, the merge counters are cumulative).
        self._index_nodes.set(getattr(merge, "index_nodes", 0))
        self._index_bytes.set(getattr(merge, "index_bytes", 0))
        pruned = getattr(merge, "pruned_nodes", 0)
        if pruned > self._last_pruned:
            self._pruned_nodes.inc(pruned - self._last_pruned)
        self._last_pruned = pruned
        return lags

    def duplicate_hit_rate(self) -> float:
        """Fraction of sampled input inserts absorbed as duplicates."""
        if not self._inserts_in.value:
            return 0.0
        return self._duplicates_dropped.value / self._inserts_in.value

    def lag_series(self) -> Dict[str, List]:
        """Per-input frontier-lag series, keyed by input id (as a string)."""
        out: Dict[str, List] = {}
        for instrument in self.registry:
            if instrument.name != "lmerge_frontier_lag_series":
                continue
            labels = dict(instrument.labels)
            out[labels.get("input", "?")] = [
                [t, v] for t, v in instrument.series()  # type: ignore[attr-defined]
            ]
        return out


class ShardObserver:
    """Sample a sharded plan's per-shard health into a registry.

    Instruments (labeled ``merge=<plan name>, shard=<index>``):

    * ``shard_queue_depth`` gauge — the shard worker's bounded input
      queue depth (backpressure pressure gauge);
    * ``shard_frontier`` gauge — the shard's CTI frontier at the union;
    * ``shard_cti_lag`` gauge — how far the shard trails the *most
      advanced* shard (a straggler holds the combined CTI at its own
      frontier, so this is the number to tune partitioning by).
    """

    def __init__(self, plan: "ShardedLMerge", registry: MetricRegistry):
        self.plan = plan
        self.registry = registry
        self._labels = {"merge": getattr(plan, "name", "sharded-lmerge")}
        self.samples = 0

    def sample(self) -> None:
        registry = self.registry
        plan = self.plan
        self.samples += 1
        frontiers = plan.shard_frontiers
        best = max(frontiers) if frontiers else -math.inf
        for shard, frontier in enumerate(frontiers):
            labels = {**self._labels, "shard": shard}
            registry.gauge(
                "shard_frontier",
                labels,
                help="This shard's emitted stable frontier.",
            ).set(frontier)
            registry.gauge(
                "shard_cti_lag",
                labels,
                help="How far this shard's frontier trails the leader.",
            ).set(frontier_lag(best, frontier))
        depths = plan.queue_depths()
        for shard, depth in enumerate(depths):
            if depth is None:
                continue
            labels = {**self._labels, "shard": shard}
            gauge = registry.gauge(
                "shard_queue_depth",
                labels,
                help="Exchange queue occupancy toward this shard.",
            )
            gauge.set(depth)
            peak = registry.gauge(
                "shard_queue_peak",
                labels,
                help="High-water exchange queue occupancy this run.",
            )
            if depth > peak.value or self.samples == 1:
                peak.set(depth)
        registry.gauge("shard_emitted_stable", self._labels).set(
            plan.max_stable
        )

    def sample_shard(self, shard: int) -> None:
        """Sample one shard's queue depth and frontier, live.

        The TELEM-merge hook (:attr:`ParallelRuntime.on_telemetry`):
        :meth:`sample` only runs at collect time, when the driver has
        already drained and the queues read near-empty — this fires
        *while* the exchange is loaded, so mid-run scrapes see real
        depths and peaks instead of zeros.
        """
        registry = self.registry
        plan = self.plan
        labels = {**self._labels, "shard": shard}
        depth = self.plan.queue_depths()[shard]
        if depth is not None:
            gauge = registry.gauge(
                "shard_queue_depth",
                labels,
                help="Exchange queue occupancy toward this shard.",
            )
            gauge.set(depth)
            peak = registry.gauge(
                "shard_queue_peak",
                labels,
                help="High-water exchange queue occupancy this run.",
            )
            if depth > peak.value:
                peak.set(depth)
        frontiers = plan.shard_frontiers
        if shard < len(frontiers):
            registry.gauge("shard_frontier", labels).set(frontiers[shard])

    def record_stats(self) -> None:
        """Fold the per-shard :class:`MergeStats` into labeled counters
        (call after the plan closes)."""
        for shard, stats in enumerate(self.plan.shard_stats):
            labels = {**self._labels, "shard": shard}
            self.registry.counter(
                "shard_elements_in_total", labels
            ).inc(stats.elements_in)
            self.registry.counter(
                "shard_elements_out_total", labels
            ).inc(stats.elements_out)
            self.registry.counter(
                "shard_adjusts_out_total", labels
            ).inc(stats.adjusts_out)


def count_feedback(
    operator: "Operator", registry: MetricRegistry
) -> "Operator":
    """Count feedback signals *honored* by an operator.

    Wraps ``operator.on_feedback`` so every delivery increments
    ``lmerge_feedback_honored_total{op=<name>}``; returns the operator for
    chaining.  The emitting side is counted by
    :class:`LMergeObserver`'s feedback listener.
    """
    inner = operator.on_feedback
    counter = registry.counter(
        "lmerge_feedback_honored_total", {"op": operator.name}
    )

    def counted(signal):
        counter.inc()
        return inner(signal)

    operator.on_feedback = counted  # type: ignore[method-assign]
    return operator
