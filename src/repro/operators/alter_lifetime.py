"""Lifetime modification.

StreamInsight's AlterLifetime: rewrites event validity intervals, e.g.
clipping every event to a fixed duration.  Chained after an aggregate it
is the paper's recipe for generating adjust()-bearing workloads ("a simple
example of such a sub-query is aggregate (count) followed by a lifetime
modification", Section VI-B).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.engine.operator import Operator
from repro.streams.properties import StreamProperties
from repro.temporal.elements import Adjust, Insert, Stable
from repro.temporal.time import Timestamp


class AlterLifetime(Operator):
    """Set every event's lifetime to ``[Vs, Vs + duration)``.

    A custom ``duration_fn(payload, vs) -> duration`` may vary the
    duration per event.  Incoming end-time adjusts are absorbed (the
    output lifetime does not depend on the input's Ve); cancels propagate.
    """

    kind = "alter-lifetime"

    def __init__(
        self,
        duration: Optional[int] = None,
        duration_fn: Optional[Callable[..., int]] = None,
        name: str = "alter-lifetime",
    ):
        super().__init__(name)
        if (duration is None) == (duration_fn is None):
            raise ValueError("provide exactly one of duration / duration_fn")
        if duration is not None and duration < 1:
            raise ValueError("duration must be positive")
        self._duration = duration
        self._duration_fn = duration_fn

    def _ve_for(self, payload, vs: Timestamp) -> Timestamp:
        if self._duration is not None:
            return vs + self._duration
        return vs + self._duration_fn(payload, vs)

    def on_insert(self, element: Insert, port: int) -> None:
        self.emit(Insert(element.payload, element.vs, self._ve_for(element.payload, element.vs)))

    def on_adjust(self, element: Adjust, port: int) -> None:
        if element.is_cancel:
            out_ve = self._ve_for(element.payload, element.vs)
            self.emit(Adjust(element.payload, element.vs, out_ve, element.vs))
        # Non-cancel end-time changes are absorbed: our output end is a
        # function of Vs and payload only.

    def on_stable(self, vc: Timestamp, port: int) -> None:
        self.emit(Stable(vc))

    def derive_properties(
        self, input_properties: List[StreamProperties]
    ) -> StreamProperties:
        # Vs values and payloads are untouched: every guarantee survives.
        if not input_properties:
            return StreamProperties.unknown()
        return input_properties[0]
