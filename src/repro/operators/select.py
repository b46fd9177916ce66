"""Stateless selection and projection."""

from __future__ import annotations

from typing import Callable, List

from repro.engine.operator import Operator
from repro.streams.properties import StreamProperties
from repro.temporal.elements import Adjust, Insert
from repro.temporal.event import Payload
from repro.temporal.time import Timestamp


class Filter(Operator):
    """Payload-predicate selection.

    Passes every element whose payload satisfies the predicate; adjusts
    for filtered-out events are filtered too (they can never name an event
    downstream has seen), and punctuation always passes.
    """

    kind = "filter"

    def __init__(self, predicate: Callable[[Payload], bool], name: str = "filter"):
        super().__init__(name)
        self.predicate = predicate

    def on_insert(self, element: Insert, port: int) -> None:
        if self.predicate(element.payload):
            self.emit(element)

    def on_adjust(self, element: Adjust, port: int) -> None:
        if self.predicate(element.payload):
            self.emit(element)

    def on_stable(self, vc: Timestamp, port: int) -> None:
        from repro.temporal.elements import Stable

        self.emit(Stable(vc))

    def derive_properties(
        self, input_properties: List[StreamProperties]
    ) -> StreamProperties:
        # Selection preserves every guarantee: it only removes elements.
        if not input_properties:
            return StreamProperties.unknown()
        return input_properties[0]


class MapPayload(Operator):
    """Payload projection/transformation.

    *injective* declares whether distinct payloads stay distinct — the
    key property ``(Vs, payload)`` survives only then (Section IV-G).
    """

    kind = "map"

    def __init__(
        self,
        fn: Callable[[Payload], Payload],
        injective: bool = False,
        name: str = "map",
    ):
        super().__init__(name)
        self.fn = fn
        self.injective = injective

    def on_insert(self, element: Insert, port: int) -> None:
        self.emit(Insert(self.fn(element.payload), element.vs, element.ve))

    def on_adjust(self, element: Adjust, port: int) -> None:
        self.emit(
            Adjust(self.fn(element.payload), element.vs, element.v_old, element.ve)
        )

    def on_stable(self, vc: Timestamp, port: int) -> None:
        from repro.temporal.elements import Stable

        self.emit(Stable(vc))

    def derive_properties(
        self, input_properties: List[StreamProperties]
    ) -> StreamProperties:
        if not input_properties:
            return StreamProperties.unknown()
        properties = input_properties[0]
        if self.injective:
            return properties
        # A non-injective projection can collide payloads: the key (and,
        # under a multiset TDB, uniqueness of duplicates) is lost.
        return properties.weaken(key_vs_payload=False)
