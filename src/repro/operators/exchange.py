"""CTI-aligned exchange for partition-parallel plans.

LMerge is embarrassingly partitionable: every merge decision is made per
``(Vs, payload)`` key from that key's own state plus the global stable
frontier.  Hash-partitioning each input by a payload key therefore yields
per-shard merges whose outputs union back losslessly — provided the two
halves of the exchange here keep the punctuation semantics intact:

* :func:`partition_batch` / :func:`partition_columns` route
  ``insert``/``adjust`` elements to one of N shards by a payload key
  function and **broadcast** every ``stable()`` to all shards, so each
  shard's frontier advances exactly as the unsharded merge's would;
* :class:`ShardUnion` re-merges the shard outputs and emits a combined
  ``stable()`` only at the **minimum frontier across shards** — the output
  may not promise ``t`` until every shard has (CTI alignment, the
  correctness crux of the whole scheme).

:mod:`repro.lmerge.sharded` composes them with
:class:`~repro.engine.parallel.ParallelRuntime` into the ``shard()``
helper.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.columnar import ColumnBatch
from repro.engine.operator import Operator
from repro.streams.properties import StreamProperties
from repro.temporal.elements import (
    KIND_STABLE,
    Adjust,
    Element,
    Insert,
    Stable,
)
from repro.temporal.event import Payload
from repro.temporal.time import MINUS_INFINITY, Timestamp

#: Maps a payload to the value the partitioner hashes.  Must depend on the
#: payload only (never the lifetime), so revisions of an event always land
#: on the shard holding its state.
KeyFunction = Callable[[Payload], object]


def identity_key(payload: Payload) -> object:
    """The default partition key: the payload itself."""
    return payload


def partition_batch(
    elements: Sequence[Element],
    num_shards: int,
    key_fn: KeyFunction = identity_key,
) -> List[List[Element]]:
    """Split a slice into per-shard slices, preserving per-shard order.

    Data elements land on ``hash(key_fn(payload)) % num_shards``; every
    ``stable()`` is appended to *all* shard slices at its original
    position, so each shard sees the punctuation interleaved with its data
    exactly as the unsharded stream would deliver it.
    """
    if num_shards == 1:
        return [list(elements)]
    shards: List[List[Element]] = [[] for _ in range(num_shards)]
    for element in elements:
        if element.__class__ is Stable:
            for bucket in shards:
                bucket.append(element)
        else:
            shards[hash(key_fn(element.payload)) % num_shards].append(element)
    return shards


def partition_columns(
    batch: ColumnBatch,
    num_shards: int,
    key_fn: KeyFunction = identity_key,
) -> List[ColumnBatch]:
    """Columnar :func:`partition_batch`: per-shard ``ColumnBatch`` slices.

    Routing walks the batch's cached key-hash column (for the identity
    key) or the payload list (custom keys) without materializing any
    element; each shard's rows come out via :meth:`ColumnBatch.take` in
    original order, stables replicated to every shard.  The hash column
    never crosses a process boundary — ``hash`` is salted per
    interpreter — so routing happens entirely in the driver.
    """
    if num_shards == 1:
        return [batch]
    n = len(batch)
    kinds = batch.kinds
    rows: List[List[int]] = [[] for _ in range(num_shards)]
    if key_fn is identity_key:
        hashes = batch.key_hashes()
        for i in range(n):
            if kinds[i] == KIND_STABLE:
                for bucket in rows:
                    bucket.append(i)
            else:
                rows[hashes[i] % num_shards].append(i)
    else:
        payloads = batch.payloads
        for i in range(n):
            if kinds[i] == KIND_STABLE:
                for bucket in rows:
                    bucket.append(i)
            else:
                rows[hash(key_fn(payloads[i])) % num_shards].append(i)
    # A bucket holding every row (increasing indices, full length) is the
    # whole batch; reuse it instead of copying the columns.
    return [
        batch if len(bucket) == n else batch.take(bucket) for bucket in rows
    ]


class ShardUnion(Operator):
    """Re-merge N shard outputs with CTI alignment.

    Data elements are forwarded in arrival order (any interleaving of the
    shard outputs reconstitutes the same TDB — the partition is disjoint).
    Punctuation is *aligned*: a combined ``stable(t)`` is emitted exactly
    when the pointwise minimum of the shard frontiers advances to ``t``,
    because the merged output can only promise what every shard promises.
    """

    kind = "shard-union"

    def __init__(
        self, num_shards: int, name: str = "shard-union", registry=None
    ):
        super().__init__(name)
        if num_shards < 1:
            raise ValueError("shard union needs at least one input")
        self.num_shards = num_shards
        #: Optional :class:`repro.obs.registry.MetricRegistry`: when set,
        #: every punctuation updates ``union_frontier{shard=}`` and
        #: ``union_emitted_stable`` gauges (the CTI-alignment signals).
        self.registry = registry
        self._frontiers: Dict[int, Timestamp] = {
            port: MINUS_INFINITY for port in range(num_shards)
        }
        self._emitted_stable: Timestamp = MINUS_INFINITY

    def on_insert(self, element: Insert, port: int) -> None:
        self.emit(element)

    def on_adjust(self, element: Adjust, port: int) -> None:
        self.emit(element)

    def on_stable(self, vc: Timestamp, port: int) -> None:
        if port not in self._frontiers:
            raise ValueError(
                f"unexpected shard port {port} (configured {self.num_shards})"
            )
        if vc > self._frontiers[port]:
            self._frontiers[port] = vc
        frontier = min(self._frontiers.values())
        if self.registry is not None:
            self.registry.gauge(
                "union_frontier", {"union": self.name, "shard": port}
            ).set(self._frontiers[port])
        if frontier > self._emitted_stable:
            self._emitted_stable = frontier
            if self.registry is not None:
                self.registry.gauge(
                    "union_emitted_stable", {"union": self.name}
                ).set(frontier)
            self.emit(Stable(frontier))

    def receive_batch(self, elements: Sequence[Element], port: int = 0) -> None:
        """Batched delivery from one shard: data runs are forwarded in one
        slice; each stable still updates the frontier individually, so the
        emitted CTIs stay exactly the pointwise minimum."""
        self.elements_in += len(elements)
        i = 0
        n = len(elements)
        while i < n:
            if elements[i].__class__ is Stable:
                self.on_stable(elements[i].vc, port)
                i += 1
                continue
            j = i + 1
            while j < n and elements[j].__class__ is not Stable:
                j += 1
            self.emit_batch(elements[i:j])
            i = j

    def receive_columns(self, batch: ColumnBatch, port: int = 0) -> None:
        """Columnar delivery from one shard: data runs leave as sliced
        ``ColumnBatch`` views; stables update the frontier per row from
        the Vs column, so CTI alignment is byte-for-byte the batched
        path's."""
        self.elements_in += len(batch)
        vs = batch.vs
        for kind, start, stop in batch.runs():
            if kind == KIND_STABLE:
                for i in range(start, stop):
                    self.on_stable(vs[i], port)
            else:
                self.emit_columns(batch.slice(start, stop))

    def frontier(self, port: Optional[int] = None) -> Timestamp:
        """One shard's frontier, or (with no argument) the aligned
        minimum across all shards."""
        if port is not None:
            return self._frontiers[port]
        return min(self._frontiers.values())

    @property
    def frontiers(self) -> Tuple[Timestamp, ...]:
        """Per-shard frontiers, indexed by port."""
        return tuple(self._frontiers[port] for port in range(self.num_shards))

    @property
    def emitted_stable(self) -> Timestamp:
        """The largest combined ``stable()`` pushed downstream."""
        return self._emitted_stable

    def derive_properties(
        self, input_properties: List[StreamProperties]
    ) -> StreamProperties:
        if not input_properties:
            return StreamProperties.unknown()
        merged = input_properties[0]
        for properties in input_properties[1:]:
            merged = merged.meet(properties)
        # Interleaving shard outputs destroys global ordering, as with the
        # arrival-order Union; per-shard keys remain keys of the whole
        # (the partition is disjoint).
        return merged.weaken(
            ordered=False,
            strictly_increasing=False,
            deterministic_same_vs_order=False,
        )

    def memory_bytes(self) -> int:
        return 8 * len(self._frontiers)
