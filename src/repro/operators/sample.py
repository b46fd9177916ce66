"""Deterministic sampling — a data-reducing operator (Section I).

The paper's motivation for out-of-order processing cites "data-reducing
operators, such as aggregation and sampling": memory needs are minimized
when elements flow to them unordered.  :class:`Sample` keeps a
deterministic pseudo-random fraction of events.

Determinism matters for LMerge: replicas must make the *same* keep/drop
decision for the same event, or their outputs stop being logically
consistent.  The decision is therefore a hash of ``(Vs, payload)`` and a
shared seed — never a per-replica RNG — and adjusts follow their event's
decision.
"""

from __future__ import annotations

import hashlib
from typing import List

from repro.engine.operator import Operator
from repro.streams.properties import StreamProperties
from repro.temporal.elements import Adjust, Insert, Stable
from repro.temporal.event import Payload
from repro.temporal.time import Timestamp

_BUCKETS = 2**32


class Sample(Operator):
    """Keep a deterministic *fraction* of events (and their revisions)."""

    kind = "sample"

    def __init__(self, fraction: float, seed: int = 0, name: str = "sample"):
        super().__init__(name)
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.fraction = fraction
        self.seed = seed
        self._threshold = int(fraction * _BUCKETS)
        self.kept = 0
        self.dropped = 0

    def keeps(self, vs: Timestamp, payload: Payload) -> bool:
        """The (replica-independent) keep/drop decision for an event."""
        digest = hashlib.blake2b(
            repr((self.seed, vs, payload)).encode(), digest_size=4
        ).digest()
        return int.from_bytes(digest, "big") < self._threshold

    def on_insert(self, element: Insert, port: int) -> None:
        if self.keeps(element.vs, element.payload):
            self.kept += 1
            self.emit(element)
        else:
            self.dropped += 1

    def on_adjust(self, element: Adjust, port: int) -> None:
        # Revisions follow their event's fate.
        if self.keeps(element.vs, element.payload):
            self.emit(element)

    def on_stable(self, vc: Timestamp, port: int) -> None:
        self.emit(Stable(vc))

    def derive_properties(
        self, input_properties: List[StreamProperties]
    ) -> StreamProperties:
        # Dropping elements preserves every guarantee.
        if not input_properties:
            return StreamProperties.unknown()
        return input_properties[0]
