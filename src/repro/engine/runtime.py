"""Cooperative runtime with inter-operator queues.

The push-based operator protocol (:mod:`repro.engine.operator`) executes
synchronously — an ``emit`` runs the whole downstream immediately.  Real
DSMSs decouple operators with queues and a scheduler; queue build-up
between operators is one of the paper's listed sources of burstiness
(Section VI-E.1).  This module adds that execution mode without changing
the operators:

* :class:`QueuedEdge` — replaces a direct subscription with a bounded
  FIFO queue;
* :class:`Runtime` — a round-robin cooperative scheduler that drains the
  queues in batches, recording per-edge depth statistics and applying
  backpressure (a full queue pauses its producer's drain).

Operators are unmodified: the runtime wraps their subscriptions.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.engine.operator import Operator
from repro.obs.trace import NULL_TRACER
from repro.temporal.elements import Element


class QueueFullError(RuntimeError):
    """An unbounded producer overwhelmed a bounded edge with no room to
    apply backpressure (the producer was external).

    For batch deliveries, :attr:`accepted` reports how many elements of
    the slice were enqueued before the edge filled (the fitting prefix);
    :attr:`rejected` is the remainder the producer still owns.
    """

    def __init__(self, message: str, accepted: int = 0, rejected: int = 1):
        super().__init__(message)
        self.accepted = accepted
        self.rejected = rejected


class QueuedEdge(Operator):
    """A FIFO queue standing between a producer and a consumer port."""

    kind = "queue"

    def __init__(
        self,
        consumer: Operator,
        port: int = 0,
        capacity: Optional[int] = None,
        name: str = "",
    ):
        super().__init__(name or f"queue->{consumer.name}[{port}]")
        self.consumer = consumer
        self.port = port
        self.capacity = capacity
        self._queue: Deque[Element] = deque()
        self._depth = 0
        self.peak_depth = 0
        self.enqueued = 0
        self.drained = 0

    # -- producer side -----------------------------------------------------

    def receive(self, element: Element, port: int = 0) -> None:
        self.elements_in += 1
        if self.capacity is not None and self._depth >= self.capacity:
            raise QueueFullError(
                f"{self.name}: capacity {self.capacity} exceeded"
            )
        self._queue.append(element)
        self._depth += 1
        self.enqueued += 1
        if self._depth > self.peak_depth:
            self.peak_depth = self._depth

    def receive_batch(self, elements: Sequence[Element], port: int = 0) -> None:
        """Enqueue a slice, mirroring per-element :meth:`receive` exactly.

        On a near-full bounded edge the fitting *prefix* is admitted and
        the overflow raises — the same observable state a per-element loop
        would leave behind (each fitting element enqueued, the first
        overflowing element counted in ``elements_in`` but rejected).  The
        raised :class:`QueueFullError` carries ``accepted``/``rejected``
        so the producer knows where to resume.
        """
        count = len(elements)
        if self.capacity is not None:
            room = self.capacity - self._depth
            if count > room:
                admitted = room if room > 0 else 0
                if admitted:
                    self._queue.extend(elements[:admitted])
                    self._depth += admitted
                    self.enqueued += admitted
                    if self._depth > self.peak_depth:
                        self.peak_depth = self._depth
                # The per-element path counts the first rejected element
                # in elements_in before raising; later elements are never
                # presented.
                self.elements_in += admitted + 1
                raise QueueFullError(
                    f"{self.name}: capacity {self.capacity} exceeded "
                    f"({admitted} of {count} admitted)",
                    accepted=admitted,
                    rejected=count - admitted,
                )
        self.elements_in += count
        self._queue.extend(elements)
        self._depth += count
        self.enqueued += count
        if self._depth > self.peak_depth:
            self.peak_depth = self._depth

    # -- scheduler side ------------------------------------------------------

    def drain(self, budget: int) -> int:
        """Deliver up to *budget* queued elements; returns how many.

        Elements leave in one slice through the consumer's
        ``receive_batch`` (whose default is a per-element loop, so the
        observable order is unchanged; consumers with a batched fast path
        get the whole slice at once).
        """
        queue = self._queue
        count = max(0, min(budget, self._depth))
        if count == 1:
            self.consumer.receive(queue.popleft(), self.port)
        elif count > 1:
            batch = [queue.popleft() for _ in range(count)]
            self.consumer.receive_batch(batch, self.port)
        self._depth -= count
        self.drained += count
        return count

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def has_room(self) -> bool:
        return self.capacity is None or self._depth < self.capacity

    def input_room(self) -> Optional[int]:
        """Free slots in the queue; ``None`` when unbounded."""
        if self.capacity is None:
            return None
        room = self.capacity - self._depth
        return room if room > 0 else 0

    def derive_properties(self, input_properties):
        # A FIFO queue reorders nothing.
        from repro.streams.properties import StreamProperties

        if not input_properties:
            return StreamProperties.unknown()
        return input_properties[0]


class Runtime:
    """Round-robin cooperative scheduler over queued edges.

    Observability is opt-in: pass a :class:`repro.obs.trace.RingTracer`
    to record per-round and per-drain-slice events, and/or a
    :class:`repro.obs.registry.MetricRegistry` to keep queue-depth gauges
    and moved-element counters current (updated once per pump, so the
    per-slice hot loop is untouched when both are absent).
    """

    def __init__(
        self,
        batch: int = 32,
        reserve: int = 1,
        tracer=None,
        registry=None,
    ):
        if batch < 1:
            raise ValueError("batch must be positive")
        if reserve < 0:
            raise ValueError("reserve must be non-negative")
        self.batch = batch
        #: Slots left free in a bounded downstream queue when sizing a
        #: drain slice — headroom for operators that emit more than one
        #: element per input (a slice is never sized to land exactly on
        #: the capacity line unless only one slot is free).
        self.reserve = reserve
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = registry
        self._edges: List[QueuedEdge] = []
        #: (edge, depth gauge, peak gauge) handles, grown lazily as edges
        #: register — see _update_metrics.
        self._edge_gauges: List[tuple] = []
        self.rounds = 0

    def connect(
        self,
        producer: Operator,
        consumer: Operator,
        port: int = 0,
        capacity: Optional[int] = None,
    ) -> QueuedEdge:
        """Wire ``producer -> consumer`` through a queue."""
        edge = QueuedEdge(consumer, port=port, capacity=capacity)
        producer.subscribe(edge)
        self._edges.append(edge)
        return edge

    def edge_to(
        self,
        consumer: Operator,
        port: int = 0,
        capacity: Optional[int] = None,
    ) -> QueuedEdge:
        """A scheduled queue feeding *consumer* with no producer operator.

        For drivers that push elements from outside the operator graph
        (the CLI, replay harnesses): call ``edge.receive(...)`` to
        enqueue, and the runtime drains it like any connected edge.
        """
        edge = QueuedEdge(consumer, port=port, capacity=capacity)
        self._edges.append(edge)
        return edge

    def pump(self) -> int:
        """One scheduling round: drain each edge up to the batch size.

        Downstream-first order so one round moves elements at most one
        hop (modelling per-operator scheduling quanta); returns elements
        moved.

        Backpressure is applied per *slice* rather than per element: the
        consumer's free downstream room (its :meth:`Operator.output_room`)
        bounds the slice size, less :attr:`reserve` slots of headroom,
        and is re-probed between slices.  An unbounded consumer drains
        its whole budget in one slice.
        """
        moved = 0
        self.rounds += 1
        reserve = self.reserve
        tracer = self.tracer
        traced = tracer.enabled
        for edge in reversed(self._edges):
            budget = self.batch
            consumer = edge.consumer
            while budget > 0:
                depth = edge.depth
                if depth == 0:
                    break
                room = consumer.output_room()
                if room is None:
                    size = budget if budget < depth else depth
                elif room <= 0:
                    if traced:
                        tracer.record(
                            "backpressure", edge.name,
                            depth=depth, round=self.rounds,
                        )
                    break
                else:
                    size = min(budget, depth, max(1, room - reserve))
                moved += edge.drain(size)
                budget -= size
                if traced:
                    tracer.record(
                        "drain", edge.name,
                        size=size, budget=budget, depth=edge.depth,
                        round=self.rounds,
                    )
        if traced:
            tracer.record("pump", "runtime", round=self.rounds, moved=moved)
        if self.registry is not None:
            self._update_metrics(moved)
        return moved

    def _update_metrics(self, moved: int) -> None:
        """Refresh queue gauges and counters (once per pump round)."""
        registry = self.registry
        registry.counter("runtime_rounds_total").inc()
        registry.counter("runtime_elements_moved_total").inc(moved)
        # Instrument handles are resolved once per edge, not per round
        # (REP109): pump runs per batch, and the get-or-create lookup
        # rebuilds the labels key each call.
        gauges = self._edge_gauges
        while len(gauges) < len(self._edges):
            # This IS the once-per-edge handle resolution; the loop only
            # runs when a new edge registered since the last round.
            edge = self._edges[len(gauges)]
            labels = {"edge": edge.name}
            gauges.append(
                (
                    edge,
                    registry.gauge("runtime_queue_depth", labels),  # noqa: REP109
                    registry.gauge("runtime_queue_peak", labels),  # noqa: REP109
                )
            )
        for edge, depth_gauge, peak_gauge in gauges:
            depth_gauge.set(edge.depth)
            peak_gauge.set(edge.peak_depth)

    def run(self, max_rounds: Optional[int] = None) -> int:
        """Pump until every queue is empty (or *max_rounds*); returns the
        total elements moved."""
        total = 0
        rounds = 0
        while any(edge.depth for edge in self._edges):
            moved = self.pump()
            total += moved
            rounds += 1
            if moved == 0:
                raise RuntimeError(
                    "runtime stalled: backpressure cycle with no progress"
                )
            if max_rounds is not None and rounds >= max_rounds:
                break
        return total

    # -- statistics ----------------------------------------------------------

    @property
    def edges(self) -> Tuple[QueuedEdge, ...]:
        return tuple(self._edges)

    def depth_report(self) -> Dict[str, int]:
        """Current depth per edge (diagnostics)."""
        return {edge.name: edge.depth for edge in self._edges}

    def peak_report(self) -> Dict[str, int]:
        """Peak depth per edge — the queue-build-up statistic."""
        return {edge.name: edge.peak_depth for edge in self._edges}
