"""Per-stream reconcile frontiers: which nodes a ``stable()`` must look at.

A merge's ``stable(t, s)`` reconciles the half-frozen keys (``Vs < t``)
with stream *s*.  For almost all of them the answer is the one *s* got
last time, so instead of walking them all the merge asks a
:class:`Frontier` for the nodes whose answer *can* have changed.  A node
below *t* needs a look for one of four reasons:

* *s* has never walked past it — it lies at or above the bound of *s*'s
  last walk, and the index finds it as a range of its ordered Vs values;
* it mutated since somebody recorded a verdict on it — the index appends
  such nodes to a shared *touched* log, which every walk drains into each
  stream's *due* set;
* the bound recorded with *s*'s verdict has been passed — the visit that
  recorded it left a ``(bound, node)`` entry on *s*'s wake heap;
* it was too young to settle — the visit parked it on a heap, shared by
  all streams since settling does not depend on who walks, that releases
  it once the settle bound passes its Vs.

The visit is idempotent, so what the frontier hands out only has to be a
*superset* of the nodes with work: a heap entry is never invalidated when
its node mutates or dies, and a dead node is the caller's to skip.

What is held is bounded by the resident nodes, however long a replica
lags and however long an event lives.  Dead nodes leave every due set at
the walk that kills them.  A heap entry pops only when a walk of its
stream passes its bound: never on a stream that stopped walking, and for
an event that ends in the far future long after its node is gone.  So
every walk's :meth:`Frontier.close` trims each heap that has outgrown
``2 * resident + SLACK`` entries down to the ones still *current*: at
most one per live node, the one matching the verdict the node carries.

Nothing here knows the index.  A node needs ``.vs``, ``._key`` and the
two verdict slots the visit writes and the index clears when the node
mutates or dies: ``.reconciled`` (``{stream: bound}`` or None) and
``.agreement``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Sequence,
    Set,
    Tuple,
)

from repro.temporal.time import MINUS_INFINITY, Timestamp

_BY_KEY = attrgetter("_key")

#: A heap is trimmed once it holds more than ``2 * resident + SLACK``
#: entries; a trim leaves at most ``resident``, so it is paid for by the
#: pushes and deaths since the last one.
SLACK = 32


def _trim(heap: List[tuple], current: Callable[[Any, Any], bool]) -> None:
    """Keep one entry per node among those *current* accepts."""
    seen: Set[Any] = set()
    kept = []
    for entry in heap:
        node = entry[2]
        if node not in seen and current(entry[0], node):
            seen.add(node)
            kept.append(entry)
    heap[:] = kept
    heapify(heap)


class Frontier:
    """The worklists behind ``stable()``: one due set and one wake heap
    per attached stream, over an index's touched log."""

    __slots__ = ("_touched", "_due", "_wake", "_parked", "_walked_to", "_tick")

    def __init__(self, touched: List[Any]):
        #: The index's log of mutated nodes; drained, never replaced.
        self._touched = touched
        self.reset(())

    def reset(self, streams: Iterable[Hashable]) -> None:
        """Start over with *streams* attached: no stream has walked
        anything, so every node is due on each of them."""
        del self._touched[:]
        self._due: Dict[Hashable, Set[Any]] = {s: set() for s in streams}
        self._wake: Dict[Hashable, List[tuple]] = {s: [] for s in self._due}
        self._parked: List[tuple] = []
        self._walked_to: Dict[Hashable, Timestamp] = {}
        #: Heap tie-break: nodes are not orderable.
        self._tick = count()

    def _drain(self) -> None:
        touched = self._touched
        if touched:
            for due in self._due.values():
                due.update(touched)
            del touched[:]

    def open(
        self, stream: Hashable, t: Timestamp, settle_bound: Timestamp
    ) -> Tuple[Timestamp, List[Any]]:
        """Begin *stream*'s walk to *t*.

        Returns ``(lo, early)``: every node with ``lo <= Vs < t`` is new
        to *stream* (the caller range-scans them), and *early* is the
        key-ordered list of nodes below *lo* with a reason to be looked
        at again.  Parked nodes are released below *settle_bound*.
        """
        self._drain()
        lo = self._walked_to.get(stream, MINUS_INFINITY)
        early = {node for node in self._due[stream] if node.vs < lo}
        for heap, bound in (
            (self._wake[stream], t), (self._parked, settle_bound)
        ):
            while heap and heap[0][0] < bound:
                node = heappop(heap)[2]
                if node.vs < lo:
                    early.add(node)
        return lo, sorted(early, key=_BY_KEY)

    def wake(self, stream: Hashable, bound: Timestamp, node: Any) -> None:
        """Have *stream* look at *node* again once its walks pass *bound*."""
        heappush(self._wake[stream], (bound, next(self._tick), node))

    def park(self, node: Any) -> None:
        """Have whoever walks look at *node* again once the settle bound
        passes its Vs."""
        heappush(self._parked, (node.vs, next(self._tick), node))

    def close(
        self,
        stream: Hashable,
        t: Timestamp,
        visited: Sequence[Any],
        unresolved: Sequence[Any],
        dead: Sequence[Any],
        resident: int,
    ) -> None:
        """End *stream*'s walk to *t*: of the *visited* nodes, the
        *unresolved* ones got no verdict and stay due on *stream*; the
        *dead* ones have left the index, which now holds *resident*."""
        # The walk's own mutations are news to every other stream; this
        # stream has seen them.
        self._drain()
        due = self._due[stream]
        due.difference_update(visited)
        due.update(unresolved)
        if dead:
            for due in self._due.values():
                due.difference_update(dead)
        self._walked_to[stream] = t
        limit = 2 * resident + SLACK
        for sid, heap in self._wake.items():
            if len(heap) > limit:
                # Stale: the node mutated (it is due), died, or carries a
                # newer verdict (which has its own entry).
                _trim(
                    heap,
                    lambda bound, node, sid=sid: node.reconciled is not None
                    and node.reconciled.get(sid) == bound,
                )
        if len(self._parked) > limit:
            # Stale likewise: only an agreed node waits to settle.
            _trim(self._parked, lambda _vs, node: bool(node.agreement))

    def pending(self) -> int:
        """Entries held across all worklists (the bounded-state gauge)."""
        return (
            len(self._touched)
            + len(self._parked)
            + sum(len(due) for due in self._due.values())
            + sum(len(heap) for heap in self._wake.values())
        )
