"""Measurement utilities for the evaluation harness.

The paper tracks three metrics (Section VI-B): **throughput** (output
events per second), **memory** (operator state including payloads and
index structures), and **output size** (adjust() chattiness).  The
figure experiments additionally need throughput *timelines* over simulated
time and application-time **latency**.
"""

from repro.metrics.collector import AppTimeLatencyProbe, ThroughputTimeline

__all__ = [
    "ThroughputTimeline",
    "AppTimeLatencyProbe",
]
