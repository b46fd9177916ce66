"""Metric probes: throughput timelines and application-time latency.

These are the figure benches' ad-hoc probes.  New instrumentation should
go through :mod:`repro.obs` instead — the registry's
:class:`~repro.obs.registry.TimeSeries` and
:class:`~repro.obs.registry.Histogram` are the labeled, snapshot-able
successors of :class:`ThroughputTimeline` and the latency lists here.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.temporal.elements import Element, Insert
from repro.temporal.time import MINUS_INFINITY, Timestamp


class ThroughputTimeline:
    """Events per simulated-time bucket (the series in Figures 8-10).

    Call :meth:`record` with the simulation clock whenever an element of
    interest passes; :meth:`series` returns ``(bucket_start, count)``
    pairs with empty buckets filled in.
    """

    def __init__(self, bucket: float = 1.0):
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        self.bucket = bucket
        self._counts: Dict[int, int] = {}
        self.total = 0

    def record(self, sim_time: float, count: int = 1) -> None:
        index = int(sim_time // self.bucket)
        self._counts[index] = self._counts.get(index, 0) + count
        self.total += count

    def series(self) -> List[Tuple[float, int]]:
        if not self._counts:
            return []
        # Buckets may be negative (a simulation clock starts wherever the
        # workload does), so the gap-fill starts at the minimum recorded
        # bucket — never a hardcoded zero, which silently dropped every
        # bucket below it.
        first = min(self._counts)
        last = max(self._counts)
        return [
            (index * self.bucket, self._counts.get(index, 0))
            for index in range(first, last + 1)
        ]

    def rates(self) -> List[float]:
        """Per-bucket rates (events / second)."""
        return [count / self.bucket for _, count in self.series()]

    def coefficient_of_variation(self) -> float:
        """Std/mean of the bucket rates — the "smoothness" statistic used
        to quantify Figures 8 and 9 (lower = steadier output)."""
        rates = self.rates()
        if not rates:
            return 0.0
        mean = sum(rates) / len(rates)
        if mean == 0:
            return 0.0
        variance = sum((r - mean) ** 2 for r in rates) / len(rates)
        return variance**0.5 / mean


class AppTimeLatencyProbe:
    """Application-time latency of output inserts.

    Latency of an output ``insert(p, Vs, Ve)`` is measured as the input
    frontier (largest Vs fed into the system so far) minus the event's Vs:
    how much application time passed between the event's occurrence and
    its release downstream.  A buffering strategy (Cleanse) shows latency
    on the order of event lifetimes; direct LMerge shows latency on the
    order of the disorder window — the Figure 7 latency comparison.
    """

    def __init__(self) -> None:
        self.frontier: Timestamp = MINUS_INFINITY
        self.latencies: List[float] = []

    def observe_input(self, element: Element) -> None:
        if isinstance(element, Insert) and element.vs > self.frontier:
            self.frontier = element.vs

    def observe_output(self, element: Element) -> None:
        if isinstance(element, Insert) and self.frontier != MINUS_INFINITY:
            self.latencies.append(self.frontier - element.vs)

    @property
    def mean(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0

    def percentile(self, q: float) -> float:
        """Ceil-based nearest-rank percentile.

        ``percentile(0.5)`` of two samples is the *lower* one (rank
        ``ceil(0.5 * 2) = 1``) and ``percentile(1.0)`` is exactly the
        maximum — the truncating ``int(q * n)`` it replaces returned the
        max for the median of a 2-sample list and only hit the true max
        through the index clamp.
        """
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = math.ceil(q * len(ordered))
        return ordered[min(len(ordered) - 1, max(0, rank - 1))]
