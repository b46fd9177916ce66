"""LMerge for case R1 (Algorithm R1).

Insert-only inputs with non-decreasing Vs; elements sharing a Vs appear in
the *same deterministic order* on every input (e.g. rank order out of a
Top-k aggregate).  Beyond MaxVs/MaxStable, one counter per input tracks how
many elements each input has delivered at the current MaxVs; an input's
element is new exactly when its counter ties the maximum.  A detached
input's counter still counts toward that maximum until MaxVs moves: the
rows it delivered were output.

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
        #: The highest count a detached input reached at the current MaxVs.
        self._departed = 0

    def _on_attach(self, stream_id: StreamId) -> None:
        # A newly attached input has produced nothing at the current MaxVs.
        self._same_vs_count[stream_id] = 0

    def _on_detach(self, stream_id: StreamId) -> None:
        count = self._same_vs_count.pop(stream_id, 0)
        self._departed = max(self._departed, count)

    def _insert_batch(
        self,
        run: Sequence[Insert],
        stream_id: StreamId,
        state: _InputState,
        coalesce_stables: bool,
    ) -> None:
        """Algorithm R1, lines 4-10, over a Vs-ordered run: move MaxVs and
        the counters as the listing would element by element, and emit
        the new elements — always a suffix of the run.

        Relative to MaxVs an ordered run is a stale prefix, a tie zone
        (``Vs == MaxVs``) and a fresh suffix; two bisections find them.
        """
        n = len(run)
        self.stats.inserts_in += n
        last = run[-1].vs
        max_vs = self._max_vs
        if last < max_vs:
            return  # a trailing replica's run: decided in O(1)
        vss = _VsColumn(run)
        counts = self._same_vs_count
        tie = bisect_left(vss, max_vs, 0, n)
        fresh = bisect_right(vss, max_vs, tie, n)
        first = fresh
        if tie < fresh:
            # Only this stream's counter moves inside the zone, so its
            # k-th element is new iff own + k has caught the leading
            # counter (line 8's count == max test).
            own = counts[stream_id]
            lead = max(self._departed, max(counts.values()))
            first = min(tie + lead - own, fresh)
            counts[stream_id] = own + fresh - tie
        if fresh < n:
            # Every new Vs zeroes all counters (lines 5-7), so the whole
            # suffix is new and only its last Vs group is still counted.
            for key in counts:
                counts[key] = 0
            self._departed = 0
            counts[stream_id] = n - bisect_left(vss, last, fresh, n)
            self._max_vs = last
        if first < n:
            self.stats.inserts_out += n - first
            self._emit_batch(run[first:])

    def _adjust(self, element: Adjust, stream_id: StreamId) -> None:
        raise AssertionError("unreachable: supports_adjust is False")

    def _stable(self, t: Timestamp, stream_id: StreamId) -> None:
        if t > self.max_stable:
            self._output_stable(t)

    def memory_bytes(self) -> int:
        return 16 + len(self._same_vs_count) * HASH_ENTRY_OVERHEAD

    def _snapshot_extra(self) -> dict:
        return {
            "max_vs": self._max_vs,
            "counts": dict(self._same_vs_count),
            "departed": self._departed,
        }

    def _restore_extra(self, extra: dict) -> None:
        self._max_vs = extra["max_vs"]
        self._same_vs_count = dict(extra["counts"])
        self._departed = extra["departed"]
