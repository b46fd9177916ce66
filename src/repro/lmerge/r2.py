"""LMerge for case R2 (Algorithm R2).

Insert-only inputs with non-decreasing Vs where elements sharing a Vs may
arrive in *different orders* on different inputs (e.g. grouped aggregation
over an ordered stream), and ``(Vs, payload)`` is a key of any prefix TDB.
A hash table indexes, by payload, the elements already output at the
current MaxVs; advancing MaxVs clears it.

O(s) time per insert, O(g * p) space (g = events at the current Vs, p =
payload size).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Sequence

from repro.lmerge.base import LMergeBase, StreamId, _InputState, _VsColumn
from repro.streams.properties import Restriction
from repro.structures.sizing import HASH_ENTRY_OVERHEAD, payload_bytes
from repro.temporal.elements import Adjust, Insert
from repro.temporal.event import Payload
from repro.temporal.time import MINUS_INFINITY, Timestamp


class LMergeR2(LMergeBase):
    """Current-Vs hash merge for nondeterministic same-Vs order."""

    algorithm = "LMR2"
    restriction = Restriction.R2
    supports_adjust = False

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._max_vs: Timestamp = MINUS_INFINITY
        # Payloads already output at the current MaxVs.  Values are the
        # payload's accounted size, so memory_bytes() is O(1).
        self._hash: Dict[Payload, int] = {}
        self._hash_bytes = 0

    def _is_new(self, payload: Payload) -> bool:
        """Record *payload* as output at the current MaxVs; False if it
        already was.  An unhashable payload is keyed by ``PayloadKey``'s
        ``(type name, repr)`` fallback, so R2 accepts what LMR3+ does."""
        try:
            if payload in self._hash:
                return False
        except TypeError:
            return self._is_new((type(payload).__name__, repr(payload)))
        size = payload_bytes(payload)
        self._hash[payload] = size
        self._hash_bytes += size
        return True

    def _insert_batch(
        self,
        run: Sequence[Insert],
        stream_id: StreamId,
        state: _InputState,
        coalesce_stables: bool,
    ) -> None:
        """Algorithm R2, lines 4-10, over a Vs-ordered run: the tie zone
        (``Vs == MaxVs``) is deduplicated through the hash; the fresh
        suffix is all new.

        ``(Vs, payload)`` is a key, so a fresh suffix holds no duplicate;
        each new Vs restarts the hash (lines 5-7), which ends holding the
        last group.
        """
        n = len(run)
        self.stats.inserts_in += n
        last = run[-1].vs
        max_vs = self._max_vs
        if last < max_vs:
            return  # a trailing replica's run: decided in O(1)
        vss = _VsColumn(run)
        is_new = self._is_new
        tie = bisect_left(vss, max_vs, 0, n)
        fresh = bisect_right(vss, max_vs, tie, n)
        out = [e for e in run[tie:fresh] if is_new(e.payload)]
        if fresh < n:
            self._hash.clear()
            self._hash_bytes = 0
            for element in run[bisect_left(vss, last, fresh, n) :]:
                is_new(element.payload)
            out += run[fresh:]
            self._max_vs = last
        self.stats.inserts_out += len(out)
        self._emit_batch(out)

    def _adjust(self, element: Adjust, stream_id: StreamId) -> None:
        raise AssertionError("unreachable: supports_adjust is False")

    def _stable(self, t: Timestamp, stream_id: StreamId) -> None:
        if t > self.max_stable:
            self._output_stable(t)

    def memory_bytes(self) -> int:
        return 16 + self._hash_bytes + len(self._hash) * HASH_ENTRY_OVERHEAD

    def _snapshot_extra(self) -> dict:
        return {
            "max_vs": self._max_vs,
            "hash": dict(self._hash),
            "hash_bytes": self._hash_bytes,
        }

    def _restore_extra(self, extra: dict) -> None:
        self._max_vs = extra["max_vs"]
        self._hash = dict(extra["hash"])
        self._hash_bytes = extra["hash_bytes"]
