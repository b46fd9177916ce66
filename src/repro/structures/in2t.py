"""The in2t (index-2-tier) structure for LMerge case R3 (Fig. 1, left).

Top tier: a red-black tree keyed by ``(Vs, payload)``; each node holds one
event (payload shared across all inputs) and points to a second-tier hash
table.  The hash table maps each input stream id to the current Ve that
stream has reported for this event, plus one entry under the sentinel key
:data:`OUTPUT` holding the Ve most recently placed on the output.

Reclamation (PR 8): :meth:`In2T.prune_below` bulk-retires a frozen/settled
prefix in one tree walk; :meth:`In2T.enable_spill` attaches a
:class:`~repro.structures.spill.RunSpill` that evicts cold, output-agreed
runs to a durable store and faults them back in on touch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterator, List, Optional

from repro.structures.rbtree import RedBlackTree
from repro.structures.sizing import (
    HASH_ENTRY_OVERHEAD,
    TIMESTAMP_BYTES,
    TREE_NODE_OVERHEAD,
    PayloadKey,
    payload_bytes,
)
from repro.temporal.event import Event, Payload
from repro.temporal.time import Timestamp

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.structures.spill import RunSpill


class _Output:
    """Sentinel hash key for the output stream (the paper's key ``inf``)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "OUTPUT"

    def __reduce__(self):
        # The sentinel is compared by identity (``key is not OUTPUT``), so
        # pickling must resolve back to the module singleton — index
        # snapshots round-trip through pickle in the durable state store.
        return (_restore_output, ())


#: Hash key under which each node records the Ve currently on the output.
OUTPUT = _Output()


def _restore_output() -> _Output:
    """Unpickle hook returning the module's OUTPUT singleton."""
    return OUTPUT

#: Identifier of an input stream (any hashable; typically an int).
StreamId = Hashable


class In2TNode:
    """One top-tier node: an event plus per-stream Ve entries."""

    __slots__ = ("event", "entries", "_key")

    def __init__(self, event: Event, key: tuple):
        self.event = event
        #: stream id (or OUTPUT) -> current Ve on that stream.
        self.entries: Dict[StreamId, Timestamp] = {}
        self._key = key

    @property
    def vs(self) -> Timestamp:
        return self.event.vs

    @property
    def payload(self) -> Payload:
        return self.event.payload

    def add_entry(self, stream: StreamId, ve: Timestamp) -> None:
        """``AddHashEntry``: record *ve* for *stream* (insert or overwrite)."""
        self.entries[stream] = ve

    def update_entry(self, stream: StreamId, ve: Timestamp) -> None:
        """``UpdateHashEntry``: overwrite the Ve recorded for *stream*."""
        self.entries[stream] = ve

    def get_entry(self, stream: StreamId) -> Optional[Timestamp]:
        """``GetHashEntry``: the Ve recorded for *stream*, or None."""
        return self.entries.get(stream)

    def remove_entry(self, stream: StreamId) -> None:
        """Drop the entry for *stream* (used when an input detaches)."""
        self.entries.pop(stream, None)

    def memory_bytes(self) -> int:
        return (
            TREE_NODE_OVERHEAD
            + payload_bytes(self.event.payload)
            + 2 * TIMESTAMP_BYTES
            + len(self.entries) * (HASH_ENTRY_OVERHEAD + TIMESTAMP_BYTES)
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"In2TNode({self.event}, entries={self.entries!r})"


class In2T:
    """The two-tier merge index of Algorithm R3."""

    __slots__ = ("_tree", "_spill")

    def __init__(self) -> None:
        self._tree = RedBlackTree()
        self._spill: "Optional[RunSpill]" = None

    def __len__(self) -> int:
        """Resident node count (spilled runs excluded; see live_nodes)."""
        return len(self._tree)

    def __bool__(self) -> bool:
        return bool(self._tree) or (
            self._spill is not None and self._spill.spilled_nodes > 0
        )

    @property
    def live_nodes(self) -> int:
        """Logical node count: resident plus spilled."""
        spill = self._spill
        return len(self._tree) + (spill.spilled_nodes if spill else 0)

    @staticmethod
    def _key(vs: Timestamp, payload: Payload) -> tuple:
        return (vs, PayloadKey(payload))

    def enable_spill(self, spill: "RunSpill") -> None:
        """Attach a cold-run spill; keyed operations fault runs back in."""
        self._spill = spill

    @property
    def spill(self) -> "Optional[RunSpill]":
        return self._spill

    def find(self, vs: Timestamp, payload: Payload) -> Optional[In2TNode]:
        """``SameVsPayload``: the node for ``(vs, payload)``, or None."""
        if self._spill is not None:
            self._spill.touch(self, vs)
        return self._tree.get(self._key(vs, payload))

    def add(self, event: Event) -> In2TNode:
        """``AddNode``: create (and return) the node for *event*.

        The caller guarantees no node exists for the event's key.
        """
        if self._spill is not None:
            self._spill.touch(self, event.vs)
        key = self._key(event.vs, event.payload)
        node = In2TNode(event, key)
        created = self._tree.insert(key, node)
        if not created:
            raise KeyError(f"in2t node already exists for {event}")
        return node

    def find_or_add(self, insert) -> "tuple[In2TNode, bool]":
        """Find the node for *insert*'s key, creating it if absent.

        Returns ``(node, created)``.  One tree descent instead of the
        ``find`` + ``add`` pair (two descents) used by the per-element
        path; the event is only materialized when the node is new.  The
        argument is anything with ``vs``/``payload``/``to_event()`` — in
        practice an :class:`~repro.temporal.elements.Insert`.
        """
        if self._spill is not None:
            self._spill.touch(self, insert.vs)
        key = (insert.vs, PayloadKey(insert.payload))
        tree_node, created = self._tree.get_or_reserve(key)
        if created:
            tree_node.value = In2TNode(insert.to_event(), key)
        return tree_node.value, created

    def delete(self, node: In2TNode) -> None:
        """``DeleteNode``: remove *node* from the top tier."""
        if not self._tree.delete(node._key):
            raise KeyError(f"in2t node not present: {node!r}")

    def prune_below(self, t: Timestamp, keep=None) -> int:
        """Bulk-retire nodes with ``Vs < t`` in one ordered walk.

        ``keep(node)`` returning True retains a node; it runs before any
        tree mutation, so it may reconcile/emit but must not touch the
        index.  Spilled runs are deliberately *not* faulted in — the
        merge resolves them via :meth:`RunSpill.resolve_stable` first.

        Returns the number of nodes removed.
        """
        if keep is None:
            return self._tree.delete_below((t, _KEY_FLOOR))
        return self._tree.delete_below(
            (t, _KEY_FLOOR), keep=lambda _key, node: keep(node)
        )

    def half_frozen(self, t: Timestamp) -> List[In2TNode]:
        """``FindHalfFrozen``: nodes with ``Vs < t``, in key order.

        Materialized as a list so callers may delete nodes while
        processing (Algorithm R3, lines 26-27).  Faults in any spilled
        run below *t* first — every returned node is resident.
        """
        if self._spill is not None:
            self._spill.fault_in_below(self, t)
        return [node for _, node in self._tree.items_below((t, _KEY_FLOOR))]

    def nodes(self) -> Iterator[In2TNode]:
        """All *resident* nodes in ``(Vs, payload)`` order."""
        return self._tree.values()

    def memory_bytes(self) -> int:
        """Resident state bytes (spilled runs live in the store's gauge)."""
        return sum(node.memory_bytes() for node in self._tree.values())

    # -- spill record protocol (repro.structures.spill) ------------------

    @staticmethod
    def _record_key(record: tuple) -> tuple:
        return (record[0], PayloadKey(record[1]))

    def _extract_records(self, lo: Timestamp, hi: Timestamp) -> List[tuple]:
        """Remove nodes with ``lo <= Vs < hi``; return them as records."""
        pairs = self._tree.extract_range((lo, _KEY_FLOOR), (hi, _KEY_FLOOR))
        return [
            (node.vs, node.payload, node.event.ve, node.entries)
            for _, node in pairs
        ]

    def _insert_records(self, records: List[tuple]) -> None:
        """Re-materialize extracted/snapshot records (keys must be absent)."""
        for vs, payload, event_ve, entries in records:
            key = self._key(vs, payload)
            node = In2TNode(Event(vs, payload, event_ve), key)
            node.entries.update(entries)
            if not self._tree.insert(key, node):
                raise KeyError(
                    f"in2t record collides with resident node: "
                    f"({vs}, {payload!r})"
                )

    # -- durable state (repro.resilience) -------------------------------

    def snapshot(self) -> List[tuple]:
        """The whole index as plain picklable records, key-ordered.

        Each record is ``(vs, payload, event_ve, entries)``; the OUTPUT
        sentinel key inside ``entries`` survives pickling by identity
        (see :meth:`_Output.__reduce__`).  Spilled runs are merged in
        *without* faulting them back into the tree, so a snapshot is
        element-identical whether or not the spill is engaged.
        """
        records = [
            (node.vs, node.payload, node.event.ve, dict(node.entries))
            for node in self._tree.values()
        ]
        spill = self._spill
        if spill is not None and spill.has_spilled:
            records.extend(spill.peek_records())
            records.sort(key=self._record_key)
        return records

    def restore(self, records: List[tuple]) -> None:
        """Rebuild the index from a :meth:`snapshot` (replaces contents)."""
        self._tree.clear()
        if self._spill is not None:
            self._spill.clear()
        for vs, payload, event_ve, entries in records:
            node = self.add(Event(vs, payload, event_ve))
            node.entries.update(entries)


class _KeyFloor:
    """Compares below every PayloadKey; makes ``(t, _KEY_FLOOR)`` an
    exclusive bound on Vs alone."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        return True

    def __gt__(self, other: object) -> bool:
        return False


_KEY_FLOOR = _KeyFloor()
