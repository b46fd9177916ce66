"""The in3t (index-3-tier) structure for LMerge case R4 (Fig. 1, right).

Same top tier as in2t — a red-black tree keyed on ``(Vs, payload)`` — but
under R4 many events can share a ``(Vs, payload)`` with different Ve
values, and exact duplicates may occur.  So each second-tier hash entry
holds, instead of a single Ve, a third tier mapping ``Ve -> count``.  The
output's multiset is tracked under the sentinel key
:data:`~repro.structures.in2t.OUTPUT`.

The third tier holds *d* distinct Ve values per ``(key, stream)`` and *d*
is one or two in practice (an event and its revision), so it is a flat
Ve-ordered pair list (:class:`VeTier`) with its multiset size maintained
alongside, not a tree per stream.  :meth:`In3TNode.memory_bytes` still
prices the paper's ordered-tree third tier (Table IV's space model).

Each node also carries what the last ``stable()`` visit learned about it
(:attr:`In3TNode.reconciled`, :attr:`In3TNode.agreement`); every
mutation forgets both, so LMR4 redoes per-node work only for nodes that
changed (see docs/ALGORITHMS.md).

Reclamation (PR 8): :meth:`In3T.prune_below` bulk-retires a settled
prefix in one tree walk, recycling the counts dicts through a freelist;
:meth:`In3T.enable_spill` attaches a
:class:`~repro.structures.spill.RunSpill` for cold, output-agreed runs.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.structures.in2t import OUTPUT, StreamId, _KeyFloor
from repro.structures.pool import FreeList
from repro.structures.rbtree import RedBlackTree
from repro.structures.sizing import (
    HASH_ENTRY_OVERHEAD,
    TIMESTAMP_BYTES,
    TREE_NODE_OVERHEAD,
    PayloadKey,
    payload_bytes,
)
from repro.temporal.event import Event, Payload
from repro.temporal.time import MINUS_INFINITY, Timestamp

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.structures.spill import RunSpill

_KEY_FLOOR = _KeyFloor()

#: Freelist of second-tier counts dicts (stream id -> Ve tier).
_COUNT_DICTS = FreeList(dict, dict.clear)


class VeTier(list):
    """The third tier: Ve-ordered ``(Ve, count)`` pairs for one stream.

    A plain sorted list — with one or two entries a scan beats any tree,
    the order the readers want is the storage order, and it is already
    the snapshot record's shape.  ``total`` is the multiset's size,
    maintained by :meth:`In3TNode.increment` / :meth:`In3TNode.decrement`
    (the only writers) so ``GetCount`` is a field read.
    """

    __slots__ = ("total",)

    def __init__(self, pairs: Sequence[Tuple[Timestamp, int]], total: int):
        # From a sized iterable the list is allocated exactly; growing an
        # empty one by append reserves four slots for the usual single pair.
        super().__init__(pairs)
        self.total = total


class In3TNode:
    """One top-tier node: per-stream multisets of Ve values.

    ``counts[stream]`` is a :class:`VeTier` describing the multiset of
    events with this node's ``(Vs, payload)`` currently in that stream's
    TDB (OUTPUT for the merge output).
    """

    __slots__ = ("vs", "payload", "counts", "_key", "reconciled", "agreement")

    def __init__(self, vs: Timestamp, payload: Payload, key: tuple):
        self.vs = vs
        self.payload = payload
        self.counts: Dict[StreamId, VeTier] = _COUNT_DICTS.acquire()
        self._key = key
        #: ``{stream: bound}``: a ``stable(t)`` from *stream* finds nothing
        #: to reconcile here while ``t <= bound`` (written by LMR4's
        #: stable visit, forgotten on any mutation).
        self.reconciled: Optional[Dict[StreamId, Timestamp]] = None
        #: LMR4's cached output-agreement verdict for the current counts
        #: (None = not computed since the last mutation).
        self.agreement: Optional[tuple] = None

    # -- multiset maintenance -------------------------------------------

    def increment(self, stream: StreamId, ve: Timestamp, by: int = 1) -> None:
        """``IncrementCount``: add *by* events ``<payload, vs, ve)``."""
        self.reconciled = self.agreement = None
        tier = self.counts.get(stream)
        if tier is None:
            self.counts[stream] = VeTier(((ve, by),), by)
            return
        for i, (held, count) in enumerate(tier):
            if held == ve:
                tier[i] = (ve, count + by)
                break
            if held > ve:
                tier.insert(i, (ve, by))
                break
        else:
            tier.append((ve, by))
        tier.total += by

    def decrement(self, stream: StreamId, ve: Timestamp, by: int = 1) -> None:
        """``DecrementCount``: remove *by* events ``<payload, vs, ve)``.

        Raises KeyError when the multiset does not contain them — that
        indicates an input violated mutual consistency.
        """
        tier = self.counts.get(stream, ())
        at = count = 0
        for i, (held, held_count) in enumerate(tier):
            if held == ve:
                at, count = i, held_count
                break
        if count < by:
            raise KeyError(
                f"stream {stream!r} has {count} events "
                f"<{self.payload!r},{self.vs},{ve}); cannot remove {by}"
            )
        if count == by:
            del tier[at]
        else:
            tier[at] = (ve, count - by)
        tier.total -= by
        self.reconciled = self.agreement = None

    # -- queries ---------------------------------------------------------

    def total_count(self, stream: StreamId) -> int:
        """``GetCount``: total events for this ``(Vs, payload)`` on *stream*."""
        tier = self.counts.get(stream)
        return tier.total if tier is not None else 0

    def count_of(self, stream: StreamId, ve: Timestamp) -> int:
        """Events with exactly this Ve on *stream*."""
        for held, count in self.counts.get(stream, ()):
            if held == ve:
                return count
        return 0

    def ve_counts(self, stream: StreamId) -> List[Tuple[Timestamp, int]]:
        """``FindAllVe``: ``(Ve, count)`` pairs for *stream*, Ve-ordered."""
        return list(self.counts.get(stream, ()))

    def max_ve(self, stream: StreamId) -> Timestamp:
        """``GetMaxVe``: largest Ve on *stream*, ``-inf`` when none."""
        tier = self.counts.get(stream)
        return tier[-1][0] if tier else MINUS_INFINITY

    def streams(self) -> Iterator[StreamId]:
        """Stream ids (including OUTPUT) with at least one event here."""
        for stream, tier in self.counts.items():
            if tier:
                yield stream

    def remove_stream(self, stream: StreamId) -> None:
        """Drop all state for *stream* (input detach)."""
        self.counts.pop(stream, None)
        self.reconciled = self.agreement = None

    def is_empty(self) -> bool:
        return all(not tier for tier in self.counts.values())

    def memory_bytes(self) -> int:
        total = TREE_NODE_OVERHEAD + payload_bytes(self.payload) + TIMESTAMP_BYTES
        for tier in self.counts.values():
            total += HASH_ENTRY_OVERHEAD
            total += len(tier) * (TREE_NODE_OVERHEAD + TIMESTAMP_BYTES + 8)
        return total

    def __repr__(self) -> str:  # pragma: no cover
        counts = {str(stream): dict(tier) for stream, tier in self.counts.items()}
        return f"In3TNode(vs={self.vs}, payload={self.payload!r}, counts={counts})"


def _recycle(node: In3TNode) -> None:
    """Return a node leaving the index for good to the freelist."""
    _COUNT_DICTS.release(node.counts)


class In3T:
    """The three-tier merge index of Algorithm R4."""

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

    def find(self, vs: Timestamp, payload: Payload) -> Optional[In3TNode]:
        """``SameVsPayload``: the node for ``(vs, payload)``, or None."""
        if self._spill is not None:
            self._spill.touch(self, vs)
        return self._tree.get(self._key(vs, payload))

    def add(self, vs: Timestamp, payload: Payload) -> In3TNode:
        """``AddNode``: create (and return) the node for ``(vs, payload)``."""
        if self._spill is not None:
            self._spill.touch(self, vs)
        key = self._key(vs, payload)
        node = In3TNode(vs, payload, key)
        created = self._tree.insert(key, node)
        if not created:
            raise KeyError(f"in3t node already exists for ({vs}, {payload!r})")
        return node

    def find_or_add(self, event) -> In3TNode:
        """The node for *event*'s key, created if absent.

        A single tree descent via
        :meth:`~repro.structures.rbtree.RedBlackTree.get_or_insert`
        (the hot path of Algorithm R4's insert handling).  *event* is
        anything exposing ``vs`` and ``payload`` — an
        :class:`~repro.temporal.event.Event` or an
        :class:`~repro.temporal.elements.Insert`.
        """
        if self._spill is not None:
            self._spill.touch(self, event.vs)
        key = (event.vs, PayloadKey(event.payload))
        tree_node, created = self._tree.get_or_reserve(key)
        if created:
            tree_node.value = In3TNode(event.vs, event.payload, key)
        return tree_node.value

    def delete(self, node: In3TNode) -> None:
        """``Delete``: remove *node* from the top tier.

        The node object (and its tiers) is *not* recycled — the caller
        may still hold it; only :meth:`prune_below` recycles.
        """
        if not self._tree.delete(node._key):
            raise KeyError(f"in3t node not present: {node!r}")

    def prune_below(self, t: Timestamp, keep=None) -> int:
        """Bulk-retire nodes with ``Vs < t`` in one ordered walk.

        ``keep(node)`` returning True retains a node; it runs before any
        tree mutation, so it may reconcile/emit but must not touch the
        index.  Deleted nodes return their counts dicts to the freelist
        (callers must not retain references to them).

        Returns the number of nodes removed.
        """
        if keep is None:
            return self._tree.delete_below(
                (t, _KEY_FLOOR), on_delete=_recycle
            )

        def _keep(_key: tuple, node: In3TNode) -> bool:
            return keep(node)

        return self._tree.delete_below(
            (t, _KEY_FLOOR), keep=_keep, on_delete=_recycle
        )

    def half_frozen(self, t: Timestamp) -> List[In3TNode]:
        """Nodes with ``Vs < t`` in key order (materialized for deletion).

        Faults in any spilled run below *t* first — every returned node
        is resident.
        """
        if self._spill is not None:
            self._spill.fault_in_below(self, t)
        return [node for _, node in self._tree.items_below((t, _KEY_FLOOR))]

    def nodes(self) -> Iterator[In3TNode]:
        """All *resident* nodes in ``(Vs, payload)`` order."""
        return self._tree.values()

    def memory_bytes(self) -> int:
        """Resident state bytes (spilled runs live in the store's gauge)."""
        return sum(node.memory_bytes() for node in self._tree.values())

    # -- spill record protocol (repro.structures.spill) ------------------

    @staticmethod
    def _record_key(record: tuple) -> tuple:
        return (record[0], PayloadKey(record[1]))

    @staticmethod
    def _to_record(node: In3TNode) -> tuple:
        return (
            node.vs,
            node.payload,
            {stream: list(tier) for stream, tier in node.counts.items()},
        )

    def _extract_records(self, lo: Timestamp, hi: Timestamp) -> List[tuple]:
        """Remove nodes with ``lo <= Vs < hi``; return them as records.

        The extracted nodes' counts dicts go back to the freelist — the
        records carry plain lists/dicts instead.
        """
        pairs = self._tree.extract_range((lo, _KEY_FLOOR), (hi, _KEY_FLOOR))
        records = []
        for _, node in pairs:
            records.append(self._to_record(node))
            _recycle(node)
        return records

    def _insert_records(self, records: List[tuple]) -> None:
        """Re-materialize extracted/snapshot records (keys must be absent)."""
        for vs, payload, counts in records:
            key = self._key(vs, payload)
            node = In3TNode(vs, payload, key)
            for stream, pairs in counts.items():
                node.counts[stream] = VeTier(
                    pairs, sum(count for _, count in pairs)
                )
            if not self._tree.insert(key, node):
                raise KeyError(
                    f"in3t record collides with resident node: "
                    f"({vs}, {payload!r})"
                )

    # -- durable state (repro.resilience) -------------------------------

    def snapshot(self) -> List[tuple]:
        """The whole index as plain picklable records, key-ordered.

        Each record is ``(vs, payload, counts)`` where ``counts`` maps
        stream id (or the OUTPUT sentinel, which pickles by identity) to
        its Ve-ordered ``(Ve, count)`` pairs.  Spilled runs are merged in
        without faulting them back into the tree.
        """
        records = [self._to_record(node) for node in self._tree.values()]
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
        self._insert_records(records)
