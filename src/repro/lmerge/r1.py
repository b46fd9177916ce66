"""LMerge for case R1 (Algorithm R1).

Insert-only inputs with non-decreasing Vs; elements sharing a Vs appear in
the *same deterministic order* on every input (e.g. rank order out of a
Top-k aggregate).  Beyond MaxVs/MaxStable, one counter per input tracks how
many elements each input has delivered at the current MaxVs; an input's
element is new exactly when its counter ties the maximum.

O(s) time per insert (s = number of inputs), O(s) space.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Sequence

from repro.lmerge.base import LMergeBase, StreamId, _InputState, _VsColumn
from repro.streams.properties import Restriction
from repro.structures.sizing import HASH_ENTRY_OVERHEAD
from repro.temporal.elements import Adjust, Insert
from repro.temporal.time import MINUS_INFINITY, Timestamp


class LMergeR1(LMergeBase):
    """Counter-per-input merge for deterministic same-Vs order."""

    algorithm = "LMR1"
    restriction = Restriction.R1
    supports_adjust = False

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._max_vs: Timestamp = MINUS_INFINITY
        self._same_vs_count: Dict[StreamId, int] = {}

    def _on_attach(self, stream_id: StreamId) -> None:
        # A newly attached input has produced nothing at the current MaxVs.
        self._same_vs_count[stream_id] = 0

    def _on_detach(self, stream_id: StreamId) -> None:
        self._same_vs_count.pop(stream_id, None)

    def _insert(self, element: Insert, stream_id: StreamId) -> None:
        # Algorithm R1, lines 4-10.
        if element.vs < self._max_vs:
            return
        if element.vs > self._max_vs:
            for key in self._same_vs_count:
                self._same_vs_count[key] = 0
            self._max_vs = element.vs
        count = self._same_vs_count[stream_id]
        if count == max(self._same_vs_count.values()):
            self._output_insert(element.payload, element.vs, element.ve)
        self._same_vs_count[stream_id] = count + 1

    def _admit(
        self, vss, lo: int, hi: int, stream_id: StreamId, rows
    ) -> None:
        """Algorithm R1 over the Vs-ordered run ``vss[lo:hi]``: move MaxVs
        and the counters as lines 4-10 would element by element, and emit
        the new rows — always a suffix — as ``rows(first, hi)``.

        Relative to MaxVs an ordered run is a stale prefix, a tie zone
        (``Vs == MaxVs``) and a fresh suffix; two bisections find them.
        """
        self.stats.inserts_in += hi - lo
        last = vss[hi - 1]
        max_vs = self._max_vs
        if last < max_vs:
            return  # a trailing replica's run: decided in O(1)
        counts = self._same_vs_count
        tie = bisect_left(vss, max_vs, lo, hi)
        fresh = bisect_right(vss, max_vs, tie, hi)
        first = fresh
        if tie < fresh:
            # Only this stream's counter moves inside the zone, so its
            # k-th row is new iff own + k has caught the leading counter.
            own = counts[stream_id]
            first = min(tie + max(counts.values()) - own, fresh)
            counts[stream_id] = own + fresh - tie
        if fresh < hi:
            # Every new Vs zeroes all counters, so the whole suffix is
            # new and only its last Vs group is still being counted.
            for key in counts:
                counts[key] = 0
            counts[stream_id] = hi - bisect_left(vss, last, fresh, hi)
            self._max_vs = last
        if first < hi:
            self.stats.inserts_out += hi - first
            self._emit_batch(rows(first, hi))

    def _insert_batch(
        self,
        run: Sequence[Insert],
        stream_id: StreamId,
        state: _InputState,
        coalesce_stables: bool,
    ) -> None:
        self._admit(
            _VsColumn(run), 0, len(run), stream_id, lambda a, b: run[a:b]
        )

    def _adjust(self, element: Adjust, stream_id: StreamId) -> None:
        raise AssertionError("unreachable: supports_adjust is False")

    def _stable(self, t: Timestamp, stream_id: StreamId) -> None:
        if t > self.max_stable:
            self._output_stable(t)

    def memory_bytes(self) -> int:
        return 16 + len(self._same_vs_count) * HASH_ENTRY_OVERHEAD

    def _snapshot_extra(self) -> dict:
        return {"max_vs": self._max_vs, "counts": dict(self._same_vs_count)}

    def _restore_extra(self, extra: dict) -> None:
        self._max_vs = extra["max_vs"]
        self._same_vs_count = dict(extra["counts"])
