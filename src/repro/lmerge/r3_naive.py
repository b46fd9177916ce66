"""The naive R3 variant (LMR3- of Section VI-A).

Functionally equivalent to :class:`~repro.lmerge.r3.LMergeR3` on R3 inputs,
but structured the "obvious" way: one index *per input stream* plus one
index for output events.  The output index is required (1) to check
whether an element was previously output and (2) to perform adjustments to
prior output before propagating a stable().

This duplicates event payloads across input streams — memory grows
linearly with the number of inputs — and requires multiple tree lookups
per element at runtime.  The paper uses it as the strawman that motivates
in2t's payload sharing (Figures 2, 3, 7); it is kept verbatim here for the
same comparisons.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.lmerge.base import LMergeBase, StreamId
from repro.structures.in2t import _KeyFloor
from repro.structures.rbtree import RedBlackTree
from repro.structures.sizing import (
    TIMESTAMP_BYTES,
    TREE_NODE_OVERHEAD,
    PayloadKey,
    payload_bytes,
)
from repro.temporal.elements import Adjust, Insert
from repro.temporal.event import Payload
from repro.temporal.time import Timestamp

_KEY_FLOOR = _KeyFloor()


class LMergeR3Naive(LMergeBase):
    """Per-input-index merge (LMR3-): simple, memory-hungry."""

    algorithm = "LMR3-"
    supports_adjust = True

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # One tree per input: (Vs, payload) -> (payload copy, Ve).  The
        # payload is stored in the value on purpose — modelling the lack
        # of sharing that in2t was designed to fix.
        self._input_trees: Dict[StreamId, RedBlackTree] = {}
        self._output_tree = RedBlackTree()
        self.dropped_frozen = 0

    @staticmethod
    def _key(vs: Timestamp, payload: Payload) -> tuple:
        return (vs, PayloadKey(payload))

    def _on_attach(self, stream_id: StreamId) -> None:
        # A pause-resume replica re-attaching under the same id keeps the
        # history it already delivered (Section V-B's lazy leave).
        self._input_trees.setdefault(stream_id, RedBlackTree())

    # ------------------------------------------------------------------

    def _insert(self, element: Insert, stream_id: StreamId) -> None:
        key = self._key(element.vs, element.payload)
        in_output = self._output_tree.get(key) is not None
        if not in_output and element.vs < self.max_stable:
            # The key was frozen and retired; this input is merely behind.
            self.dropped_frozen += 1
            return
        self._input_trees[stream_id].insert(key, (element.payload, element.ve))
        if not in_output:
            self._output_tree.insert(key, (element.payload, element.ve))
            self._output_insert(element.payload, element.vs, element.ve)

    def _adjust(self, element: Adjust, stream_id: StreamId) -> None:
        key = self._key(element.vs, element.payload)
        tree = self._input_trees[stream_id]
        if tree.get(key) is not None:
            tree.insert(key, (element.payload, element.ve))

    def _stable(self, t: Timestamp, stream_id: StreamId) -> None:
        if t <= self.max_stable:
            return
        bound = (t, _KEY_FLOOR)
        freezing_tree = self._input_trees[stream_id]
        for key, (payload, out_ve) in list(self._output_tree.items_below(bound)):
            vs = key[0]
            entry: Optional[Tuple[Payload, Timestamp]] = freezing_tree.get(key)
            if entry is not None:
                in_ve = entry[1]
            elif out_ve < self.guarantee_of(stream_id):
                in_ve = out_ve  # late joiner: silent about old history
            else:
                in_ve = vs  # authoritative absence: cancel the event
            if in_ve != out_ve and (in_ve < t or out_ve < t):
                self._output_adjust(payload, vs, out_ve, in_ve)
                self._output_tree.insert(key, (payload, in_ve))
            if in_ve < t:
                # Fully frozen: retire the key from the output index and
                # from every per-input copy — the duplicated bookkeeping
                # (one delete per input tree) that in2t's shared nodes
                # avoid.  A lagging input's entry may still be *adjusted*
                # later, but the frozen output no longer cares.
                self._output_tree.delete(key)
                for tree in self._input_trees.values():
                    tree.delete(key)
        self._output_stable(t)

    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        total = 16
        for tree in self._input_trees.values():
            for _, (payload, _ve) in tree.items():
                total += (
                    TREE_NODE_OVERHEAD + payload_bytes(payload) + 2 * TIMESTAMP_BYTES
                )
        for _, (payload, _ve) in self._output_tree.items():
            total += TREE_NODE_OVERHEAD + payload_bytes(payload) + 2 * TIMESTAMP_BYTES
        return total

    def _snapshot_extra(self) -> dict:
        def rows(tree: RedBlackTree) -> list:
            return [(key[0], payload, ve) for key, (payload, ve) in tree.items()]

        return {
            "inputs": {sid: rows(tree) for sid, tree in self._input_trees.items()},
            "output": rows(self._output_tree),
            "dropped_frozen": self.dropped_frozen,
        }

    def _restore_extra(self, extra: dict) -> None:
        def tree(rows: list) -> RedBlackTree:
            rebuilt = RedBlackTree()
            for vs, payload, ve in rows:
                rebuilt.insert(self._key(vs, payload), (payload, ve))
            return rebuilt

        # Detached inputs keep their trees too (a re-attach resumes them).
        self._input_trees = {sid: tree(rows) for sid, rows in extra["inputs"].items()}
        self._output_tree = tree(extra["output"])
        self.dropped_frozen = extra["dropped_frozen"]

    @property
    def live_keys(self) -> int:
        return len(self._output_tree)
