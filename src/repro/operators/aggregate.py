"""Windowed aggregates — the property factories of Section IV-G.

All aggregates here use tumbling windows of width ``window``: an event
belongs to the window containing its Vs, the output event's lifetime is
the window, and the output payload carries the aggregate value.  Two
operating modes mirror the paper's data-center example:

* ``CONSERVATIVE`` waits until a window can no longer change (the input
  stable point passes its end) and emits one final event per window/group;
* ``AGGRESSIVE`` emits an updated aggregate as soon as it sees each input
  event and *revises* (cancels and re-inserts) when the value changes,
  trading chattiness for latency.

Their output properties drive LMerge algorithm selection exactly as the
paper's examples list:

=============================  ==========  =====================
Operator                       Mode        Output restriction
=============================  ==========  =====================
WindowedCount                  conserv.    R0 (strictly increasing)
TopK                           conserv.    R1 (rank order at same Vs)
GroupedCount                   conserv.    R2 (same-Vs order varies)
GroupedCount / WindowedCount   aggressive  R3 (adjusts, keyed)
=============================  ==========  =====================

Output punctuation: after input ``stable(t)``, events may still start
anywhere in the window containing *t*, so the output stable point is the
start of that window (``floor(t / window) * window``).
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Dict, List, Tuple

from repro.engine.operator import Operator
from repro.streams.properties import StreamProperties
from repro.temporal.elements import Adjust, Insert, Stable
from repro.temporal.event import Payload
from repro.temporal.time import INFINITY, MINUS_INFINITY, Timestamp


class AggregateMode(enum.Enum):
    """Emission discipline of a windowed aggregate.

    ``CONSERVATIVE`` emits a window only once punctuation proves it final;
    ``AGGRESSIVE`` emits every running value and revises on each change;
    ``SPECULATIVE`` bets on arrival order — a window's value is emitted as
    final as soon as an event from a *later* window arrives, and revised
    only when a disordered straggler lands in it.  On an in-order stream
    SPECULATIVE emits no revisions at all; under d% disorder its revision
    count is proportional to d (the Figure 4 workload).
    """

    CONSERVATIVE = "conservative"
    AGGRESSIVE = "aggressive"
    SPECULATIVE = "speculative"


class _WindowedOperator(Operator):
    """Shared tumbling-window machinery."""

    def __init__(self, window: int, name: str):
        super().__init__(name)
        if window < 1:
            raise ValueError("window must be positive")
        self.window = window
        self._emitted_stable: Timestamp = MINUS_INFINITY

    def window_start(self, vs: Timestamp) -> Timestamp:
        return int(math.floor(vs / self.window)) * self.window

    def window_of(self, vs: Timestamp) -> Tuple[Timestamp, Timestamp]:
        start = self.window_start(vs)
        return start, start + self.window

    def _output_stable_point(self, t: Timestamp) -> Timestamp:
        """The largest stable point the output can honour after input
        stable(t): the start of the window containing *t*."""
        if t == INFINITY:
            return INFINITY
        return self.window_start(t)

    def _emit_stable(self, t: Timestamp) -> None:
        point = self._output_stable_point(t)
        if point > self._emitted_stable:
            self._emitted_stable = point
            self.emit(Stable(point))


class WindowedCount(_WindowedOperator):
    """Count of events starting in each tumbling window.

    Conservative mode emits exactly one ``insert(count, ws, we)`` per
    non-empty window, in window order — the strictly-increasing R0 shape.
    Aggressive mode emits the running count and revises it (a cancel of
    the stale count plus an insert of the new one) on every change.
    """

    kind = "aggregate"

    def __init__(
        self,
        window: int,
        mode: AggregateMode = AggregateMode.CONSERVATIVE,
        name: str = "count",
    ):
        super().__init__(window, name)
        self.mode = mode
        #: window start -> current count (open windows only).
        self._counts: Dict[Timestamp, int] = {}
        #: SPECULATIVE: window start -> count currently on the output.
        self._emitted: Dict[Timestamp, int] = {}
        self._max_window: Timestamp = MINUS_INFINITY

    # -- input handlers ---------------------------------------------------

    def on_insert(self, element: Insert, port: int) -> None:
        start, end = self.window_of(element.vs)
        old = self._counts.get(start, 0)
        self._counts[start] = old + 1
        if self.mode is AggregateMode.AGGRESSIVE:
            self._revise(start, end, old, old + 1)
        elif self.mode is AggregateMode.SPECULATIVE:
            self._speculate(start)

    def _speculate(self, start: Timestamp) -> None:
        """Speculative emission: windows behind the frontier are presumed
        complete; stragglers into them cost a revision."""
        if start > self._max_window:
            for behind in sorted(self._counts):
                if behind < start and behind not in self._emitted:
                    self._emit_window(behind)
            self._max_window = start
        elif start < self._max_window or start in self._emitted:
            self._sync_emitted(start)

    def _emit_window(self, start: Timestamp) -> None:
        count = self._counts[start]
        self._emitted[start] = count
        self.emit(Insert(count, start, start + self.window))

    def _sync_emitted(self, start: Timestamp) -> None:
        new = self._counts.get(start, 0)
        old = self._emitted.get(start, 0)
        if start not in self._emitted and new > 0:
            self._emit_window(start)
            return
        if new == old:
            return
        self._revise(start, start + self.window, old, new)
        if new > 0:
            self._emitted[start] = new
        else:
            self._emitted.pop(start, None)

    def on_adjust(self, element: Adjust, port: int) -> None:
        if not element.is_cancel:
            return  # end-time changes do not move an event's window
        start, end = self.window_of(element.vs)
        old = self._counts.get(start, 0)
        if old == 0:
            return
        self._counts[start] = old - 1
        if self._counts[start] == 0:
            del self._counts[start]
        if self.mode is AggregateMode.AGGRESSIVE:
            self._revise(start, end, old, old - 1)
        elif self.mode is AggregateMode.SPECULATIVE and start in self._emitted:
            self._sync_emitted(start)

    def on_stable(self, vc: Timestamp, port: int) -> None:
        closing = sorted(w for w in self._counts if w + self.window <= vc)
        for start in closing:
            if self.mode is AggregateMode.CONSERVATIVE:
                self.emit(Insert(self._counts[start], start, start + self.window))
            elif (
                self.mode is AggregateMode.SPECULATIVE
                and start not in self._emitted
            ):
                self._emit_window(start)
            del self._counts[start]
            self._emitted.pop(start, None)
        self._emit_stable(vc)

    # -- helpers -----------------------------------------------------------

    def _revise(self, start: Timestamp, end: Timestamp, old: int, new: int) -> None:
        if old > 0:
            # Cancel the stale count event (Ve down to Vs removes it).
            self.emit(Adjust(old, start, end, start))
        if new > 0:
            self.emit(Insert(new, start, end))

    def derive_properties(
        self, input_properties: List[StreamProperties]
    ) -> StreamProperties:
        if self.mode is AggregateMode.CONSERVATIVE:
            return StreamProperties.strongest()
        # Aggressive/speculative: revisions revisit old window starts
        # (disorder) and emit adjusts; (Vs, count) stays a key because the
        # count for a window never repeats a live value.
        return StreamProperties(key_vs_payload=True)

    def memory_bytes(self) -> int:
        return (len(self._counts) + len(self._emitted)) * 24


class GroupedCount(_WindowedOperator):
    """Per-group count in each tumbling window (the "count per machine"
    of the data-center example).

    Conservative output: all groups of a closing window share the window's
    Vs; their relative order follows arrival order of the groups, which
    differs across replicas — the R2 shape.  Aggressive output adds
    revisions — the R3 shape.
    """

    kind = "aggregate"

    def __init__(
        self,
        window: int,
        key_fn: Callable[[Payload], Payload],
        mode: AggregateMode = AggregateMode.CONSERVATIVE,
        name: str = "grouped-count",
    ):
        super().__init__(window, name)
        self.mode = mode
        self.key_fn = key_fn
        #: window start -> {group -> count}, insertion-ordered by arrival.
        self._groups: Dict[Timestamp, Dict[Payload, int]] = {}
        #: SPECULATIVE: window start -> {group -> count on the output}.
        self._emitted: Dict[Timestamp, Dict[Payload, int]] = {}
        self._max_window: Timestamp = MINUS_INFINITY

    def on_insert(self, element: Insert, port: int) -> None:
        start, end = self.window_of(element.vs)
        groups = self._groups.setdefault(start, {})
        group = self.key_fn(element.payload)
        old = groups.get(group, 0)
        groups[group] = old + 1
        if self.mode is AggregateMode.AGGRESSIVE:
            self._revise(group, start, end, old, old + 1)
        elif self.mode is AggregateMode.SPECULATIVE:
            self._speculate(start, group)

    def _speculate(self, start: Timestamp, group: Payload) -> None:
        if start > self._max_window:
            for behind in sorted(self._groups):
                if behind < start and behind not in self._emitted:
                    self._emit_window(behind)
            self._max_window = start
        elif start < self._max_window or start in self._emitted:
            self._sync_group(start, group)

    def _emit_window(self, start: Timestamp) -> None:
        end = start + self.window
        snapshot = dict(self._groups.get(start, {}))
        self._emitted[start] = snapshot
        for group, count in snapshot.items():
            self.emit(Insert((group, count), start, end))

    def _sync_group(self, start: Timestamp, group: Payload) -> None:
        emitted = self._emitted.setdefault(start, {})
        new = self._groups.get(start, {}).get(group, 0)
        old = emitted.get(group, 0)
        if new == old:
            return
        self._revise(group, start, start + self.window, old, new)
        if new > 0:
            emitted[group] = new
        else:
            emitted.pop(group, None)

    def on_adjust(self, element: Adjust, port: int) -> None:
        if not element.is_cancel:
            return
        start, end = self.window_of(element.vs)
        groups = self._groups.get(start)
        if not groups:
            return
        group = self.key_fn(element.payload)
        old = groups.get(group, 0)
        if old == 0:
            return
        groups[group] = old - 1
        if groups[group] == 0:
            del groups[group]
        if self.mode is AggregateMode.AGGRESSIVE:
            self._revise(group, start, end, old, old - 1)
        elif self.mode is AggregateMode.SPECULATIVE and start in self._emitted:
            self._sync_group(start, group)

    def on_stable(self, vc: Timestamp, port: int) -> None:
        closing = sorted(w for w in self._groups if w + self.window <= vc)
        for start in closing:
            if self.mode is AggregateMode.CONSERVATIVE:
                end = start + self.window
                for group, count in self._groups[start].items():
                    self.emit(Insert((group, count), start, end))
            elif (
                self.mode is AggregateMode.SPECULATIVE
                and start not in self._emitted
            ):
                self._emit_window(start)
            del self._groups[start]
            self._emitted.pop(start, None)
        self._emit_stable(vc)

    def _revise(
        self,
        group: Payload,
        start: Timestamp,
        end: Timestamp,
        old: int,
        new: int,
    ) -> None:
        if old > 0:
            self.emit(Adjust((group, old), start, end, start))
        if new > 0:
            self.emit(Insert((group, new), start, end))

    def derive_properties(
        self, input_properties: List[StreamProperties]
    ) -> StreamProperties:
        if self.mode is AggregateMode.CONSERVATIVE:
            # Ordered, insert-only, keyed — but same-Vs order is arrival
            # order of groups, which is replica-dependent: exactly R2.
            return StreamProperties(
                ordered=True, insert_only=True, key_vs_payload=True
            )
        return StreamProperties(key_vs_payload=True)

    def memory_bytes(self) -> int:
        retained = sum(len(groups) * 48 for groups in self._groups.values())
        retained += sum(len(groups) * 48 for groups in self._emitted.values())
        return retained


class TopK(_WindowedOperator):
    """Top-k payloads by score per tumbling window, emitted in rank order.

    Conservative only: the k results of a closed window share the window's
    Vs and are emitted in deterministic (rank) order on every replica —
    the R1 shape (duplicate timestamps, deterministic same-Vs order).
    """

    kind = "aggregate"

    def __init__(
        self,
        window: int,
        k: int,
        score_fn: Callable[[Payload], float],
        name: str = "topk",
    ):
        super().__init__(window, name)
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.score_fn = score_fn
        self._windows: Dict[Timestamp, List[Payload]] = {}

    def on_insert(self, element: Insert, port: int) -> None:
        start = self.window_start(element.vs)
        self._windows.setdefault(start, []).append(element.payload)

    def on_adjust(self, element: Adjust, port: int) -> None:
        if not element.is_cancel:
            return
        start = self.window_start(element.vs)
        payloads = self._windows.get(start)
        if payloads and element.payload in payloads:
            payloads.remove(element.payload)

    def on_stable(self, vc: Timestamp, port: int) -> None:
        closing = sorted(w for w in self._windows if w + self.window <= vc)
        for start in closing:
            end = start + self.window
            ranked = sorted(
                self._windows[start],
                key=lambda payload: (-self.score_fn(payload), repr(payload)),
            )
            for rank, payload in enumerate(ranked[: self.k], start=1):
                self.emit(Insert((rank, payload), start, end))
            del self._windows[start]
        self._emit_stable(vc)

    def derive_properties(
        self, input_properties: List[StreamProperties]
    ) -> StreamProperties:
        return StreamProperties(
            ordered=True,
            insert_only=True,
            deterministic_same_vs_order=True,
            key_vs_payload=True,
        )

    def memory_bytes(self) -> int:
        from repro.structures.sizing import payload_bytes

        return sum(
            sum(payload_bytes(p) + 16 for p in payloads)
            for payloads in self._windows.values()
        )
