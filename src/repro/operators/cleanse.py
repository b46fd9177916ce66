"""The Cleanse (reorder) operator of Section VI-D.

Accepts a disordered, revision-bearing stream; buffers every event until a
stable() fully freezes it; then releases frozen events in timestamp order
as plain inserts.  The output is ordered and insert-only with a
deterministic same-Vs order — i.e. Cleanse *enforces* the R1 restriction,
enabling the cheap LMR1 downstream.

The buffer is an ordered index (red-black tree keyed on ``(Vs, payload)``)
because releases must come out in timestamp order; this is also what makes
the enforcement strategy's cost profile realistic — every element pays a
tree operation in its Cleanse *and* is then re-processed by the merge.

The price, measured in Figure 7: an event is withheld until the stable
point passes its *end* time (and no smaller-Vs event is still pending), so
memory and latency grow with event lifetimes and the amount of potential
disorder.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.engine.operator import Operator
from repro.streams.properties import StreamProperties
from repro.structures.rbtree import RedBlackTree
from repro.structures.sizing import (
    TIMESTAMP_BYTES,
    TREE_NODE_OVERHEAD,
    PayloadKey,
    payload_bytes,
)
from repro.temporal.elements import Adjust, Insert, Stable
from repro.temporal.event import Payload
from repro.temporal.time import Timestamp


class Cleanse(Operator):
    """Buffering reorder: disordered/revised in, ordered insert-only out."""

    kind = "cleanse"

    def __init__(self, name: str = "cleanse"):
        super().__init__(name)
        #: Ordered buffer: (Vs, payload) -> current Ve.
        self._buffer = RedBlackTree()
        self._buffered_bytes = 0
        self._emitted_stable: Timestamp = float("-inf")
        self.released = 0
        self.peak_buffered = 0

    @staticmethod
    def _key(vs: Timestamp, payload: Payload) -> tuple:
        return (vs, PayloadKey(payload))

    def on_insert(self, element: Insert, port: int) -> None:
        created = self._buffer.insert(
            self._key(element.vs, element.payload), element.ve
        )
        if created:
            self._buffered_bytes += payload_bytes(element.payload)
        if len(self._buffer) > self.peak_buffered:
            self.peak_buffered = len(self._buffer)

    def on_adjust(self, element: Adjust, port: int) -> None:
        key = self._key(element.vs, element.payload)
        if key not in self._buffer:
            return
        if element.is_cancel:
            self._buffer.delete(key)
            self._buffered_bytes -= payload_bytes(element.payload)
        else:
            self._buffer.insert(key, element.ve)

    def on_stable(self, vc: Timestamp, port: int) -> None:
        # Walk the buffer in (Vs, payload) order, releasing the frozen
        # prefix; the first unfrozen event blocks everything behind it
        # (its own release would otherwise come out of order later).
        releasable: List[Tuple[tuple, Timestamp]] = []
        for key, ve in self._buffer.items():
            if ve >= vc:
                break
            releasable.append((key, ve))
        for (vs, payload_key), ve in releasable:
            self.emit(Insert(payload_key.payload, vs, ve))
            self._buffer.delete((vs, payload_key))
            self._buffered_bytes -= payload_bytes(payload_key.payload)
            self.released += 1
        # The output may promise stability only up to the earliest element
        # still buffered (it will be emitted with its original Vs later).
        if self._buffer:
            (first_vs, _), _ = self._buffer.min_item()
            out_stable = min(vc, first_vs)
        else:
            out_stable = vc
        if out_stable > self._emitted_stable:
            self._emitted_stable = out_stable
            self.emit(Stable(out_stable))

    def derive_properties(
        self, input_properties: List[StreamProperties]
    ) -> StreamProperties:
        # Enforced, not inherited: this is Section IV-G route 2 (a
        # property-enforcing operator annotates its output at compile time).
        properties = input_properties[0] if input_properties else None
        keyed = properties.key_vs_payload if properties else False
        return StreamProperties(
            ordered=True,
            insert_only=True,
            deterministic_same_vs_order=True,
            key_vs_payload=keyed,
        )

    def memory_bytes(self) -> int:
        per_entry = TREE_NODE_OVERHEAD + 2 * TIMESTAMP_BYTES
        return self._buffered_bytes + len(self._buffer) * per_entry

    @property
    def buffered(self) -> int:
        return len(self._buffer)
