"""CTI-aligned exchange operators for partition-parallel plans.

LMerge is embarrassingly partitionable: every merge decision is made per
``(Vs, payload)`` key from that key's own state plus the global stable
frontier.  Hash-partitioning each input by a payload key therefore yields
per-shard merges whose outputs union back losslessly — provided the two
exchange operators here keep the punctuation semantics intact:

* :class:`HashPartition` routes ``insert``/``adjust`` elements to one of N
  shard ports by a payload key function and **broadcasts** every
  ``stable()`` to all ports, so each shard's frontier advances exactly as
  the unsharded merge's would;
* :class:`ShardUnion` re-merges the shard outputs and emits a combined
  ``stable()`` only at the **minimum frontier across shards** — the output
  may not promise ``t`` until every shard has (CTI alignment, the
  correctness crux of the whole scheme).

Both operators are plain push-based :class:`~repro.engine.operator.Operator`
subclasses, usable in any query graph; :mod:`repro.lmerge.shard` composes
them with :class:`~repro.engine.parallel.ParallelRuntime` into the
``shard()`` helper.
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


class ShardPort(Operator):
    """One output port of a :class:`HashPartition` — a pure passthrough
    that downstream shard sub-graphs subscribe to."""

    kind = "exchange-port"

    def __init__(self, shard: int, name: str = ""):
        super().__init__(name or f"shard[{shard}]")
        self.shard = shard

    def receive(self, element: Element, port: int = 0) -> None:
        self.elements_in += 1
        self.emit(element)

    def receive_batch(self, elements: Sequence[Element], port: int = 0) -> None:
        self.elements_in += len(elements)
        self.emit_batch(elements)

    def receive_columns(self, batch: ColumnBatch, port: int = 0) -> None:
        self.elements_in += len(batch)
        self.emit_columns(batch)

    def derive_properties(
        self, input_properties: List[StreamProperties]
    ) -> StreamProperties:
        if not input_properties:
            return StreamProperties.unknown()
        return input_properties[0]


class HashPartition(Operator):
    """Route a stream to N shard ports by payload key; broadcast stables.

    Subscribe each shard's sub-graph to ``self.outputs[i]``.  A partition
    preserves every per-stream property within a shard — a sub-sequence of
    an ordered stream is ordered, same-Vs determinism and keys survive —
    so each port reports the input properties unchanged.
    """

    kind = "partition"

    def __init__(
        self,
        num_shards: int,
        key_fn: Optional[KeyFunction] = None,
        name: str = "partition",
        registry=None,
    ):
        super().__init__(name)
        if num_shards < 1:
            raise ValueError("partition needs at least one shard")
        self.num_shards = num_shards
        self.key_fn: KeyFunction = key_fn or identity_key
        #: Optional :class:`repro.obs.registry.MetricRegistry`: when set,
        #: batched routing keeps ``partition_routed_total{shard=}`` and
        #: ``partition_stables_broadcast_total`` counters current.
        self.registry = registry
        self.outputs: Tuple[ShardPort, ...] = tuple(
            ShardPort(shard, name=f"{name}.out[{shard}]")
            for shard in range(num_shards)
        )
        for port_op in self.outputs:
            self.subscribe(port_op)

    def shard_of(self, payload: Payload) -> int:
        """The shard index the partitioner routes *payload* to."""
        return hash(self.key_fn(payload)) % self.num_shards

    # The base ``emit`` would fan every element to every port; routing is
    # the whole point, so the handlers address ports directly.

    def on_insert(self, element: Insert, port: int) -> None:
        self.elements_out += 1
        self.outputs[self.shard_of(element.payload)].receive(element)

    def on_adjust(self, element: Adjust, port: int) -> None:
        self.elements_out += 1
        self.outputs[self.shard_of(element.payload)].receive(element)

    def on_stable(self, vc: Timestamp, port: int) -> None:
        element = Stable(vc)
        self.elements_out += self.num_shards
        for port_op in self.outputs:
            port_op.receive(element)

    def receive_batch(self, elements: Sequence[Element], port: int = 0) -> None:
        self.elements_in += len(elements)
        buckets = partition_batch(elements, self.num_shards, self.key_fn)
        registry = self.registry
        for shard, bucket in enumerate(buckets):
            if bucket:
                self.elements_out += len(bucket)
                if registry is not None:
                    registry.counter(
                        "partition_routed_total", {"shard": shard}
                    ).inc(len(bucket))
                self.outputs[shard].receive_batch(bucket)
        if registry is not None:
            stables = sum(
                1 for e in elements if e.__class__ is Stable
            )
            if stables:
                registry.counter("partition_stables_broadcast_total").inc(
                    stables
                )

    def receive_columns(self, batch: ColumnBatch, port: int = 0) -> None:
        """Columnar routing: per-shard slices leave as ``ColumnBatch``
        objects; no element is materialized on the way through."""
        self.elements_in += len(batch)
        buckets = partition_columns(batch, self.num_shards, self.key_fn)
        registry = self.registry
        for shard, bucket in enumerate(buckets):
            if bucket:
                self.elements_out += len(bucket)
                if registry is not None:
                    registry.counter(
                        "partition_routed_total", {"shard": shard}
                    ).inc(len(bucket))
                self.outputs[shard].receive_columns(bucket)
        if registry is not None:
            stables = batch.counts()[2]
            if stables:
                registry.counter("partition_stables_broadcast_total").inc(
                    stables
                )

    def input_room(self) -> Optional[int]:
        # The partitioner holds nothing; its room is the tightest room
        # across the shard ports' subscribers (a stable goes to all).
        room: Optional[int] = None
        for port_op in self.outputs:
            r = port_op.output_room()
            if r is not None and (room is None or r < room):
                room = r
        return room

    def derive_properties(
        self, input_properties: List[StreamProperties]
    ) -> StreamProperties:
        if not input_properties:
            return StreamProperties.unknown()
        return input_properties[0]


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
