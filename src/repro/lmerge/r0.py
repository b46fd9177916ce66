"""LMerge for case R0 (Algorithm R0).

Inputs contain only insert() and stable() elements with *strictly
increasing* Vs — deterministic order, no duplicate timestamps (e.g. the
output of a windowed aggregate over an in-order stream).  Two scalars
suffice: the maximum Vs and the maximum stable() timestamp seen across all
inputs.  O(1) time per element, O(1) space.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from repro.lmerge.base import LMergeBase, StreamId, _InputState, _VsColumn
from repro.streams.properties import Restriction
from repro.temporal.elements import Adjust, Insert
from repro.temporal.time import MINUS_INFINITY, Timestamp


class LMergeR0(LMergeBase):
    """Constant-state merge for strictly increasing insert-only inputs."""

    algorithm = "LMR0"
    restriction = Restriction.R0
    supports_adjust = False

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._max_vs: Timestamp = MINUS_INFINITY

    def _insert(self, element: Insert, stream_id: StreamId) -> None:
        # Algorithm R0, lines 3-5: output iff the element advances MaxVs.
        if element.vs > self._max_vs:
            self._max_vs = element.vs
            self._output_insert(element.payload, element.vs, element.ve)

    def _admit(self, vss, lo: int, hi: int, rows) -> None:
        """Algorithm R0 over the Vs-ordered run ``vss[lo:hi]``: everything
        past MaxVs is new and is emitted as ``rows(first, hi)``; what
        precedes it replicates elements already output.

        Input elements are re-emitted as-is (an insert the filter passes
        is value-equal to what _output_insert would construct).
        """
        self.stats.inserts_in += hi - lo
        last = vss[hi - 1]
        if last <= self._max_vs:
            return  # a trailing replica's run: decided in O(1)
        first = bisect_right(vss, self._max_vs, lo, hi)
        self._max_vs = last
        self.stats.inserts_out += hi - first
        self._emit_batch(rows(first, hi))

    def _insert_batch(
        self,
        run: Sequence[Insert],
        stream_id: StreamId,
        state: _InputState,
        coalesce_stables: bool,
    ) -> None:
        self._admit(_VsColumn(run), 0, len(run), lambda a, b: run[a:b])

    def _adjust(self, element: Adjust, stream_id: StreamId) -> None:
        raise AssertionError("unreachable: supports_adjust is False")

    def _stable(self, t: Timestamp, stream_id: StreamId) -> None:
        # Lines 9-11: stables are redundant under R0 (the stable point
        # rides MaxVs) but are forwarded to signal progress through lulls.
        if t > self.max_stable:
            self._output_stable(t)

    def memory_bytes(self) -> int:
        return 16  # MaxVs + MaxStable

    def _snapshot_extra(self) -> dict:
        return {"max_vs": self._max_vs}

    def _restore_extra(self, extra: dict) -> None:
        self._max_vs = extra["max_vs"]
