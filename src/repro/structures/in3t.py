"""The in3t (index-3-tier) structure for LMerge case R4 (Fig. 1, right).

The paper's top tier orders ``(Vs, payload)`` keys; under R4 many events
can share a key with different Ve values, and exact duplicates may occur,
so each second-tier hash entry holds, instead of a single Ve, a third
tier mapping ``Ve -> count``.  The output's multiset is tracked under the
sentinel key :data:`~repro.structures.in2t.OUTPUT`.

The third tier holds *d* distinct Ve values per ``(key, stream)`` and *d*
is one or two in practice (an event and its revision), so it is a flat
Ve-ordered pair list (:class:`VeTier`) with its multiset size maintained
alongside, not a tree per stream.  :meth:`In3TNode.memory_bytes` still
prices the paper's ordered-tree third tier (Table IV's space model).

Nor is the top tier a tree.  *Identity* — "the node for this ``(Vs,
payload)``" — is a hash, ``{vs: {payload: node}}``; *order* is needed
only to walk a Vs range, so what is kept ordered is the distinct resident
Vs values (:class:`~repro.structures.sortedkeys.SortedKeys`), and a Vs
with several payloads sorts them when a walk reaches it.  A new key is a
dict insert plus, for a new Vs, an append (O(lg r + chunk) inside the
window, *r* resident distinct Vs); a retired key is a dict delete.  Which
payloads name one key where no hash can tell is :func:`_held`'s call.

Each node carries what the last ``stable()`` visit learned about it
(:attr:`In3TNode.reconciled`, :attr:`In3TNode.agreement`); a mutation
forgets both and logs the node on :attr:`In3T.touched`, so LMR4 looks only
at nodes that changed (docs/ALGORITHMS.md).  Reclamation (PR 8) is
:meth:`In3T.prune_below`, and :meth:`In3T.enable_spill` for cold,
output-agreed runs.
"""

from __future__ import annotations

from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.structures.in2t import OUTPUT, StreamId
from repro.structures.sizing import (
    HASH_ENTRY_OVERHEAD,
    TIMESTAMP_BYTES,
    TREE_NODE_OVERHEAD,
    PayloadKey,
    payload_bytes,
)
from repro.structures.sortedkeys import SortedKeys
from repro.temporal.event import Payload
from repro.temporal.time import MINUS_INFINITY, Timestamp

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.structures.spill import RunSpill

_BY_KEY = attrgetter("_key")


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
        #: ``None`` once the node has left the index for good: any
        #: further use fails on the spot.
        self.counts: Dict[StreamId, VeTier] = {}
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


def _held(bucket: Dict[object, In3TNode], payload: Payload) -> Optional[In3TNode]:
    """The node among one Vs's that *payload* names, or None.

    On a hash miss the bucket is searched: payloads are one key when they
    are ``==`` or, failing that, when neither :class:`PayloadKey` orders
    before the other — equal dicts built in another key order, ``[1, 2]``
    and ``[1.0, 2.0]``, NaN and NaN — and no hash can tell.
    """
    try:
        node = bucket.get(payload)
    except TypeError:
        node = None
    if node is None:
        key = PayloadKey(payload)
        for node in bucket.values():
            held = node._key[1]
            if held == key or not (key < held or held < key):
                return node
        return None
    return node


class In3T:
    """The three-tier merge index of Algorithm R4."""

    __slots__ = ("_order", "_nodes", "_size", "_spill", "touched")

    def __init__(self) -> None:
        #: The distinct resident Vs values, ascending.
        self._order = SortedKeys()
        #: ``{vs: {payload: node}}`` (a node with an unhashable payload is
        #: filed under itself); a Vs is in ``_order`` iff it has a bucket.
        self._nodes: Dict[Timestamp, Dict[object, In3TNode]] = {}
        self._size = 0
        self._spill: "Optional[RunSpill]" = None
        #: Nodes whose cached verdicts a mutation dropped, and records
        #: re-materialized behind a walk, in arrival order; the reader
        #: (:class:`~repro.structures.frontier.Frontier`) empties it.
        self.touched: List[In3TNode] = []

    def __len__(self) -> int:
        """Resident node count (spilled runs excluded; see live_nodes)."""
        return self._size

    def __bool__(self) -> bool:
        return self.live_nodes > 0

    @property
    def live_nodes(self) -> int:
        """Logical node count: resident plus spilled."""
        spill = self._spill
        return self._size + (spill.spilled_nodes if spill else 0)

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
        return None if bucket is None else _held(bucket, payload)

    def _file(self, bucket: Optional[dict], vs, payload) -> In3TNode:
        """A new node for an absent key; *bucket* is its Vs's, if any."""
        if bucket is None:
            bucket = self._nodes[vs] = {}
            self._order.add(vs)
        node = In3TNode(vs, payload, (vs, PayloadKey(payload)), self.touched)
        try:
            bucket[payload] = node
        except TypeError:
            bucket[node] = node
        self._size += 1
        return node

    def _unfile(self, nodes: Sequence[In3TNode]) -> None:
        """Take *nodes* out of their buckets, and the Vs values that
        empties out of the order in one sweep."""
        buckets = self._nodes
        emptied = []
        for node in nodes:
            bucket = buckets[node.vs]
            try:
                del bucket[node.payload]
            except TypeError:
                del bucket[node]
            if not bucket:
                del buckets[node.vs]
                emptied.append(node.vs)
        self._size -= len(nodes)
        if emptied:
            self._order.discard(emptied)

    def add(self, vs: Timestamp, payload: Payload) -> In3TNode:
        """``AddNode``: create (and return) the node for ``(vs, payload)``."""
        if self.find(vs, payload) is not None:
            raise KeyError(f"in3t node already exists for ({vs}, {payload!r})")
        return self._file(self._nodes.get(vs), vs, payload)

    def find_or_add(self, event) -> In3TNode:
        """The node for the key of *event* (anything exposing ``vs`` and
        ``payload``), created if absent: a hash probe and, for a new key,
        a dict insert (the hot path of Algorithm R4's insert handling)."""
        vs = event.vs
        if self._spill is not None:
            self._spill.touch(self, vs)
        bucket = self._nodes.get(vs)
        node = None if bucket is None else _held(bucket, event.payload)
        return self._file(bucket, vs, event.payload) if node is None else node

    def delete(self, node: In3TNode) -> None:
        """``Delete``: remove *node* from the top tier.  It stays usable
        — the caller may still hold it; :meth:`prune_below` and
        :meth:`remove` retire for good."""
        bucket = self._nodes.get(node.vs)
        if bucket is None or _held(bucket, node.payload) is not node:
            raise KeyError(f"in3t node not present: {node!r}")
        self._unfile((node,))

    def remove(self, nodes: Sequence[In3TNode]) -> None:
        """Retire *nodes* (resident, each once) for good.  A node object
        may still be referenced (a caller, a wake heap): with ``counts``
        gone any use of it fails loudly, and with its verdicts gone
        nothing is waiting on it."""
        self._unfile(nodes)
        for node in nodes:
            node.counts = node.reconciled = node.agreement = None

    def prune_below(self, t: Timestamp, keep=None) -> int:
        """Bulk-retire (see :meth:`remove`) the nodes with ``Vs < t`` in
        one ordered walk; returns how many.  ``keep(node)`` returning True
        retains a node; it runs before any index mutation, so it may
        reconcile/emit but must not touch the index."""
        doomed = self.nodes_between(MINUS_INFINITY, t)
        if keep is not None:
            doomed = [node for node in doomed if not keep(node)]
        self.remove(doomed)
        return len(doomed)

    def _walk(self, keys: Iterable[Timestamp]) -> Iterator[In3TNode]:
        """The nodes of the Vs values *keys*, each Vs's by ``PayloadKey``."""
        buckets = self._nodes
        for vs in keys:
            bucket = buckets[vs]
            if len(bucket) == 1:
                yield from bucket.values()
            else:
                yield from sorted(bucket.values(), key=_BY_KEY)

    def nodes_between(self, lo: Timestamp, hi: Timestamp) -> List[In3TNode]:
        """Resident nodes with ``lo <= Vs < hi`` in key order."""
        return list(self._walk(self._order.between(lo, hi)))

    def half_frozen(self, t: Timestamp) -> List[In3TNode]:
        """Nodes with ``Vs < t`` in key order, spilled runs below *t*
        faulted in first — every returned node is resident."""
        if self._spill is not None:
            self._spill.fault_in_below(self, t)
        return self.nodes_between(MINUS_INFINITY, t)

    def nodes(self) -> Iterator[In3TNode]:
        """All *resident* nodes in ``(Vs, payload)`` order, lazily."""
        return self._walk(self._order)

    def memory_bytes(self) -> int:
        """Resident state bytes (spilled runs live in the store's gauge)."""
        return sum(node.memory_bytes() for node in self.nodes())

    # -- spill record protocol (repro.structures.spill) ------------------

    @staticmethod
    def _to_record(node: In3TNode) -> tuple:
        counts = {stream: list(tier) for stream, tier in node.counts.items()}
        return (node.vs, node.payload, counts)

    def _extract_records(self, lo: Timestamp, hi: Timestamp) -> List[tuple]:
        """Remove nodes with ``lo <= Vs < hi``; return them as records."""
        nodes = self.nodes_between(lo, hi)
        records = [self._to_record(node) for node in nodes]
        self.remove(nodes)
        return records

    def _insert_records(self, records: List[tuple]) -> None:
        """Re-materialize extracted/snapshot records (keys must be absent);
        their new Vs values join the order in one merge.  The nodes may lie
        behind a stream's last walk, which no range scan revisits, so they
        go on the touched log."""
        buckets = self._nodes
        fresh = {record[0] for record in records}.difference(buckets)
        self._order.update(fresh)
        buckets.update((vs, {}) for vs in fresh)
        for vs, payload, counts in records:
            node = self.add(vs, payload)
            for stream, pairs in counts.items():
                total = sum(count for _, count in pairs)
                node.counts[stream] = VeTier(pairs, total)
            self.touched.append(node)

    # -- durable state (repro.resilience) -------------------------------

    def snapshot(self) -> List[tuple]:
        """The whole index as plain picklable records, key-ordered.

        Each record is ``(vs, payload, counts)`` where ``counts`` maps
        stream id (or the OUTPUT sentinel, which pickles by identity) to
        its Ve-ordered ``(Ve, count)`` pairs.  Spilled runs are merged in
        without faulting them back into the index.
        """
        records = [self._to_record(node) for node in self.nodes()]
        spill = self._spill
        if spill is not None and spill.has_spilled:
            records.extend(spill.peek_records())
            records.sort(key=lambda record: (record[0], PayloadKey(record[1])))
        return records

    def restore(self, records: List[tuple]) -> None:
        """Rebuild the index from a :meth:`snapshot` (replaces contents)."""
        self.remove(list(self.nodes()))
        del self.touched[:]
        if self._spill is not None:
            self._spill.clear()
        self._insert_records(records)
