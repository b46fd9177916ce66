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

Order is needed only to walk a Vs range; *identity* — "the node for this
``(Vs, payload)``" — is answered by a hash kept beside the tree
(:attr:`In3T._nodes`): a hit, and a miss on a Vs no resident node has,
never descend.  Any other miss asks the tree, which stays the authority
on what equals what (its ``==``-and-order test accepts payloads no hash
can: unhashable ones, ones not equal to themselves).

Each node also carries what the last ``stable()`` visit learned about it
(:attr:`In3TNode.reconciled`, :attr:`In3TNode.agreement`); every
mutation forgets both and, when there was something to forget, appends
the node to the index's :attr:`In3T.touched` log, so LMR4 looks only at
nodes that changed (see docs/ALGORITHMS.md).

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

    __slots__ = (
        "vs", "payload", "counts", "_key", "reconciled", "agreement", "_touched"
    )

    def __init__(
        self, vs: Timestamp, payload: Payload, key: tuple, touched: list
    ):
        self.vs = vs
        self.payload = payload
        #: ``None`` once the node has left the index for good: its dict is
        #: back on the freelist, and any further use fails on the spot.
        self.counts: Dict[StreamId, VeTier] = _COUNT_DICTS.acquire()
        self._key = key
        #: The owning index's touched log (see :meth:`_forget`).
        self._touched = touched
        #: ``{stream: bound}``: a ``stable(t)`` from *stream* finds nothing
        #: to reconcile here while ``t <= bound`` (written by LMR4's
        #: stable visit, forgotten on any mutation).
        self.reconciled: Optional[Dict[StreamId, Timestamp]] = None
        #: LMR4's cached output-agreement verdict for the current counts
        #: (None = not computed since the last mutation).
        self.agreement: Optional[tuple] = None

    # -- multiset maintenance -------------------------------------------

    def _forget(self) -> None:
        """Drop the cached verdicts; they described the counts as they were.

        A node somebody held a verdict on goes on the touched log — once
        per dirty period, since the next mutation finds nothing to forget.
        """
        if self.reconciled is not None or self.agreement is not None:
            self.reconciled = self.agreement = None
            self._touched.append(self)

    def increment(self, stream: StreamId, ve: Timestamp, by: int = 1) -> None:
        """``IncrementCount``: add *by* events ``<payload, vs, ve)``."""
        self._forget()
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
        self._forget()

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
        self._forget()

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
    """Return a node leaving the index for good to the freelist.

    The node object may still be referenced (a caller, a wake heap); with
    ``counts`` gone it cannot alias the next node to acquire that dict,
    and with its verdicts gone nothing is waiting on it.
    """
    _COUNT_DICTS.release(node.counts)
    node.counts = node.reconciled = node.agreement = None


class In3T:
    """The three-tier merge index of Algorithm R4."""

    __slots__ = ("_tree", "_nodes", "_spill", "touched")

    def __init__(self) -> None:
        self._tree = RedBlackTree()
        #: ``{vs: {payload: node}}`` over exactly the tree's nodes (one
        #: with an unhashable payload is filed under itself, so a Vs has
        #: a bucket iff it has a node): the tree answers "which nodes lie
        #: in this Vs range", this answers "which node is this key".
        self._nodes: Dict[Timestamp, Dict[object, In3TNode]] = {}
        self._spill: "Optional[RunSpill]" = None
        #: Nodes whose cached verdicts a mutation dropped, and records
        #: re-materialized behind a walk, in arrival order; the reader
        #: (:class:`~repro.structures.frontier.Frontier`) empties it.
        self.touched: List[In3TNode] = []

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
        bucket = self._nodes.get(vs)
        if bucket is None:
            return None
        try:
            node = bucket.get(payload)
        except TypeError:
            node = None
        if node is None:
            return self._tree.get((vs, PayloadKey(payload)))
        return node

    def _link(self, vs: Timestamp, payload: Payload) -> Tuple[In3TNode, bool]:
        """The tree's node for a key the hash did not find, created (and
        hashed) if the tree does not hold it either; ``(node, created)``."""
        key = (vs, PayloadKey(payload))
        tree_node, created = self._tree.get_or_reserve(key)
        if not created:
            return tree_node.value, False
        node = tree_node.value = In3TNode(vs, payload, key, self.touched)
        bucket = self._nodes.get(vs)
        if bucket is None:
            bucket = self._nodes[vs] = {}
        try:
            bucket[payload] = node
        except TypeError:
            bucket[node] = node
        return node, True

    def _unhash(self, node: In3TNode) -> None:
        """Drop *node* from its Vs's bucket, and the bucket with its last."""
        bucket = self._nodes[node.vs]
        try:
            del bucket[node.payload]
        except TypeError:
            del bucket[node]
        if not bucket:
            del self._nodes[node.vs]

    def _retire(self, node: In3TNode) -> None:
        """A node leaving the index for good: unhash it, recycle its dict."""
        self._unhash(node)
        _recycle(node)

    def add(self, vs: Timestamp, payload: Payload) -> In3TNode:
        """``AddNode``: create (and return) the node for ``(vs, payload)``."""
        if self._spill is not None:
            self._spill.touch(self, vs)
        return self._add(vs, payload)

    def _add(self, vs: Timestamp, payload: Payload) -> In3TNode:
        node, created = self._link(vs, payload)
        if not created:
            raise KeyError(f"in3t node already exists for ({vs}, {payload!r})")
        return node

    def find_or_add(self, event) -> In3TNode:
        """The node for *event*'s key, created if absent.

        A hash probe; only a miss descends the tree, once, to find or
        link the node (the hot path of Algorithm R4's insert handling).
        *event* is anything exposing ``vs`` and ``payload`` — an
        :class:`~repro.temporal.event.Event` or an
        :class:`~repro.temporal.elements.Insert`.
        """
        vs = event.vs
        if self._spill is not None:
            self._spill.touch(self, vs)
        bucket = self._nodes.get(vs)
        if bucket is not None:
            try:
                node = bucket.get(event.payload)
            except TypeError:
                node = None
            if node is not None:
                return node
        return self._link(vs, event.payload)[0]

    def delete(self, node: In3TNode) -> None:
        """``Delete``: remove *node* from the top tier.

        The node object (and its tiers) is *not* recycled — the caller
        may still hold it; :meth:`prune_below` and :meth:`remove` recycle.
        """
        if not self._tree.delete(node._key):
            raise KeyError(f"in3t node not present: {node!r}")
        self._unhash(node)

    def remove(self, nodes: Sequence[In3TNode]) -> None:
        """Retire *nodes* (resident, each once) and recycle their dicts;
        callers must not use them afterwards."""
        delete = self._tree.delete
        for node in nodes:
            delete(node._key)
            self._retire(node)

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
                (t, _KEY_FLOOR), on_delete=self._retire
            )

        def _keep(_key: tuple, node: In3TNode) -> bool:
            return keep(node)

        return self._tree.delete_below(
            (t, _KEY_FLOOR), keep=_keep, on_delete=self._retire
        )

    def nodes_between(self, lo: Timestamp, hi: Timestamp) -> List[In3TNode]:
        """Resident nodes with ``lo <= Vs < hi`` in key order."""
        floor = None if lo == MINUS_INFINITY else (lo, _KEY_FLOOR)
        return [
            node
            for _, node in self._tree.items_between(floor, (hi, _KEY_FLOOR))
        ]

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
            self._retire(node)
        return records

    def _insert_records(self, records: List[tuple]) -> None:
        """Re-materialize extracted/snapshot records (keys must be absent).

        The new nodes may lie behind a stream's last walk, which no range
        scan revisits, so they go on the touched log.
        """
        for vs, payload, counts in records:
            node = self._add(vs, payload)
            for stream, pairs in counts.items():
                node.counts[stream] = VeTier(
                    pairs, sum(count for _, count in pairs)
                )
            self.touched.append(node)

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
        self._nodes.clear()
        del self.touched[:]
        if self._spill is not None:
            self._spill.clear()
        self._insert_records(records)
