"""Symmetric temporal (interval) join.

Joins two streams on lifetime overlap: events ``l`` and ``r`` with
intersecting validity intervals produce an output event whose payload is
``combine(l.payload, r.payload)`` and whose lifetime is the intersection.
This is the canonical stateful binary operator of the interval algebra
(Example 5's model), and — crucially for LMerge — it *revises its output*:
adjusting an input event's end time shrinks, grows, or cancels previously
emitted matches, so join outputs are natural R3/R4 workloads.

State per side is the set of live events; purged once both inputs' stable
points pass their end times.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.operator import Operator
from repro.streams.properties import StreamProperties
from repro.structures.sizing import HASH_ENTRY_OVERHEAD, payload_bytes
from repro.temporal.elements import Adjust, Insert, Stable
from repro.temporal.event import Payload
from repro.temporal.time import MINUS_INFINITY, Timestamp

Key = Tuple[Timestamp, Payload]


class TemporalJoin(Operator):
    """Two-input interval join with revision propagation."""

    kind = "join"
    LEFT = 0
    RIGHT = 1

    def __init__(
        self,
        combine: Optional[Callable[[Payload, Payload], Payload]] = None,
        predicate: Optional[Callable[[Payload, Payload], bool]] = None,
        name: str = "join",
    ):
        super().__init__(name)
        self.combine = combine or (lambda left, right: (left, right))
        self.predicate = predicate or (lambda left, right: True)
        # Per side: (Vs, payload) -> current Ve.
        self._state: Tuple[Dict[Key, Timestamp], Dict[Key, Timestamp]] = ({}, {})
        self._stables: List[Timestamp] = [MINUS_INFINITY, MINUS_INFINITY]
        self._emitted_stable: Timestamp = MINUS_INFINITY
        # Output bookkeeping: (left key, right key) -> current output Ve
        # (output Vs is derivable: max of the two input Vs values).
        self._matches: Dict[Tuple[Key, Key], Timestamp] = {}

    # ------------------------------------------------------------------

    def on_insert(self, element: Insert, port: int) -> None:
        side = self._state[port]
        key = (element.vs, element.payload)
        side[key] = element.ve
        other = self._state[1 - port]
        for other_key, other_ve in other.items():
            self._try_match(key, element.ve, other_key, other_ve, port)

    def _try_match(
        self,
        key: Key,
        ve: Timestamp,
        other_key: Key,
        other_ve: Timestamp,
        port: int,
    ) -> None:
        out_vs = max(key[0], other_key[0])
        out_ve = min(ve, other_ve)
        if out_ve <= out_vs:
            return  # empty intersection
        left_key, right_key = (key, other_key) if port == self.LEFT else (other_key, key)
        if not self.predicate(left_key[1], right_key[1]):
            return
        pair = (left_key, right_key)
        if pair in self._matches:
            return
        self._matches[pair] = out_ve
        payload = self.combine(left_key[1], right_key[1])
        self.emit(Insert(payload, out_vs, out_ve))

    # ------------------------------------------------------------------

    def on_adjust(self, element: Adjust, port: int) -> None:
        side = self._state[port]
        key = (element.vs, element.payload)
        if key not in side:
            return
        if element.is_cancel:
            del side[key]
        else:
            side[key] = element.ve
        # Revise every match this event participates in.
        for pair in list(self._matches):
            my_key = pair[port]
            if my_key != key:
                continue
            self._revise_match(pair, element, port)
        if not element.is_cancel:
            # A grown lifetime can create matches that did not overlap before.
            other = self._state[1 - port]
            for other_key, other_ve in other.items():
                self._try_match(key, element.ve, other_key, other_ve, port)

    def _revise_match(self, pair: Tuple[Key, Key], element: Adjust, port: int) -> None:
        left_key, right_key = pair
        out_vs = max(left_key[0], right_key[0])
        out_old = self._matches[pair]
        if element.is_cancel:
            new_ve = out_vs  # cancelling an input cancels the match
        else:
            other_key = pair[1 - port]
            other_ve = self._state[1 - port][other_key]
            new_ve = min(element.ve, other_ve)
            if new_ve <= out_vs:
                new_ve = out_vs
        if new_ve == out_old:
            return
        payload = self.combine(left_key[1], right_key[1])
        self.emit(Adjust(payload, out_vs, out_old, new_ve))
        if new_ve == out_vs:
            del self._matches[pair]
        else:
            self._matches[pair] = new_ve

    # ------------------------------------------------------------------

    def on_stable(self, vc: Timestamp, port: int) -> None:
        if vc > self._stables[port]:
            self._stables[port] = vc
        frontier = min(self._stables)
        if frontier > self._emitted_stable:
            self._emitted_stable = frontier
            self._purge(frontier)
            self.emit(Stable(frontier))

    def _purge(self, frontier: Timestamp) -> None:
        """Drop fully frozen events and matches (no future effect)."""
        for side in self._state:
            dead = [key for key, ve in side.items() if ve < frontier]
            for key in dead:
                del side[key]
        dead_matches = [
            pair for pair, ve in self._matches.items() if ve < frontier
        ]
        for pair in dead_matches:
            del self._matches[pair]

    # ------------------------------------------------------------------

    def derive_properties(
        self, input_properties: List[StreamProperties]
    ) -> StreamProperties:
        left, right = input_properties
        # Matches are emitted by arrival and revised: order and
        # insert-onliness are gone.  The pair key survives when both sides
        # are keyed (distinct pairs produce distinct combined payloads
        # assuming the default tuple combiner).
        keyed = left.key_vs_payload and right.key_vs_payload
        return StreamProperties(key_vs_payload=keyed)

    def memory_bytes(self) -> int:
        total = 0
        for side in self._state:
            for (_, payload), _ve in side.items():
                total += HASH_ENTRY_OVERHEAD + payload_bytes(payload) + 16
        total += len(self._matches) * (HASH_ENTRY_OVERHEAD + 8)
        return total
