"""Measurement utilities for the evaluation harness.

The paper tracks three metrics (Section VI-B): **throughput** (output
events per second), **memory** (operator state including payloads and
index structures), and **output size** (adjust() chattiness).  The
figure experiments additionally need throughput *timelines* over simulated
time and application-time **latency**.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.metrics.collector import AppTimeLatencyProbe, ThroughputTimeline
else:
    __getattr__, __dir__, __all__ = lazy_exports(__name__, __file__)
