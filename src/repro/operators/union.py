"""Multi-input Union.

The paper's Section I observation: gathering data from multiple sources
into one stream with a Union produces disorder *even when every input is
in order*, because elements interleave by arrival.  Data elements are
forwarded as they arrive; punctuation is the minimum over the inputs'
stable points (the union can only promise what all inputs promise).
"""

from __future__ import annotations

from typing import Dict, List

from repro.engine.operator import Operator
from repro.streams.properties import StreamProperties
from repro.temporal.elements import Adjust, Insert, Stable
from repro.temporal.time import MINUS_INFINITY, Timestamp


class Union(Operator):
    """Arrival-order union of *num_inputs* streams."""

    kind = "union"

    def __init__(self, num_inputs: int, name: str = "union"):
        super().__init__(name)
        if num_inputs < 1:
            raise ValueError("union needs at least one input")
        self.num_inputs = num_inputs
        self._stables: Dict[int, Timestamp] = {
            port: MINUS_INFINITY for port in range(num_inputs)
        }
        self._emitted_stable: Timestamp = MINUS_INFINITY

    def on_insert(self, element: Insert, port: int) -> None:
        self.emit(element)

    def on_adjust(self, element: Adjust, port: int) -> None:
        self.emit(element)

    def on_stable(self, vc: Timestamp, port: int) -> None:
        if port not in self._stables:
            raise ValueError(f"unexpected port {port} (configured {self.num_inputs})")
        if vc > self._stables[port]:
            self._stables[port] = vc
        frontier = min(self._stables.values())
        if frontier > self._emitted_stable:
            self._emitted_stable = frontier
            self.emit(Stable(frontier))

    def derive_properties(
        self, input_properties: List[StreamProperties]
    ) -> StreamProperties:
        merged = input_properties[0]
        for properties in input_properties[1:]:
            merged = merged.meet(properties)
        # Arrival interleaving destroys ordering; payload keys may collide
        # across inputs, so the key property is lost too.
        return merged.weaken(
            ordered=False,
            strictly_increasing=False,
            deterministic_same_vs_order=False,
            key_vs_payload=False,
        )

    def memory_bytes(self) -> int:
        return 8 * len(self._stables)
