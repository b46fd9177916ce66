"""The push-based operator protocol.

Operators receive stream elements on numbered input ports, update state,
and push results to subscribers.  Feedback signals (Section V-D) travel the
opposite direction: ``on_feedback`` lets an operator drop future work below
a horizon and forward the signal to its upstreams.

Every operator declares how it transforms stream properties
(:meth:`Operator.derive_properties`), which is what the compile-time
LMerge-algorithm selection of Section IV-G walks.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.lmerge.feedback import FeedbackSignal
from repro.obs.trace import NULL_TRACER
from repro.streams.properties import StreamProperties
from repro.streams.stream import PhysicalStream
from repro.temporal.elements import Adjust, Element, Insert, Stable
from repro.temporal.time import Timestamp


class Operator:
    """Base class for all streaming operators.

    Subclasses override :meth:`on_insert` / :meth:`on_adjust` /
    :meth:`on_stable` (the default handlers drop adjusts with an error to
    catch wiring mistakes) and :meth:`derive_properties`.
    """

    #: Human-readable operator kind.
    kind = "operator"
    #: The observability tracer (class default: the shared no-op).  The
    #: hot paths guard on ``tracer.enabled``, so the disabled cost is one
    #: attribute load and a branch per *call*; install a
    #: :class:`repro.obs.trace.RingTracer` via :meth:`set_tracer` to
    #: record receive/batch events.
    tracer = NULL_TRACER

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__
        self._subscribers: List[Tuple["Operator", int]] = []
        self._upstreams: List["Operator"] = []
        self.elements_in = 0
        self.elements_out = 0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def subscribe(self, downstream: "Operator", port: int = 0) -> "Operator":
        """Wire this operator's output to *downstream*'s input *port*.

        Returns *downstream* so pipelines chain naturally.
        """
        self._subscribers.append((downstream, port))
        downstream._upstreams.append(self)
        return downstream

    def unsubscribe(self, downstream: "Operator") -> None:
        """Remove every subscription to *downstream* (inverse of
        :meth:`subscribe`)."""
        self._subscribers = [
            (op, port) for op, port in self._subscribers if op is not downstream
        ]
        downstream._upstreams = [
            op for op in downstream._upstreams if op is not self
        ]

    def set_tracer(self, tracer) -> "Operator":
        """Install an observability tracer on this operator (chainable)."""
        self.tracer = tracer
        return self

    @property
    def upstreams(self) -> Tuple["Operator", ...]:
        return tuple(self._upstreams)

    @property
    def subscribers(self) -> Tuple[Tuple["Operator", int], ...]:
        """The ``(downstream, port)`` subscriptions, as a snapshot.

        The public face of the wiring — schedulers and diagnostics should
        read this rather than the private list.
        """
        return tuple(self._subscribers)

    # ------------------------------------------------------------------
    # Capacity (the scheduler's backpressure probe)
    # ------------------------------------------------------------------

    def input_room(self) -> Optional[int]:
        """How many more elements this operator can accept right now.

        ``None`` means unbounded (the default); bounded operators —
        notably queued edges — override.
        """
        return None

    def output_room(self) -> Optional[int]:
        """The tightest :meth:`input_room` across all subscribers.

        ``None`` when every subscriber is unbounded.
        """
        room: Optional[int] = None
        for downstream, _ in self._subscribers:
            r = downstream.input_room()
            if r is not None and (room is None or r < room):
                room = r
        return room

    def has_output_room(self) -> bool:
        """True when every subscriber can accept at least one element."""
        room = self.output_room()
        return room is None or room > 0

    # ------------------------------------------------------------------
    # Element flow
    # ------------------------------------------------------------------

    def receive(self, element: Element, port: int = 0) -> None:
        """Entry point: dispatch one element arriving on *port*."""
        self.elements_in += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(
                "receive", self.name,
                port=port, cls=element.__class__.__name__,
            )
        if isinstance(element, Insert):
            self.on_insert(element, port)
        elif isinstance(element, Adjust):
            self.on_adjust(element, port)
        elif isinstance(element, Stable):
            self.on_stable(element.vc, port)
        else:
            raise TypeError(f"not a stream element: {element!r}")

    def receive_batch(self, elements: Sequence[Element], port: int = 0) -> None:
        """Deliver a slice of consecutive elements to one port.

        Default: element-by-element :meth:`receive`, so every operator
        accepts batches.  Operators with a cheaper bulk path override
        (queued edges enqueue in one extend; the HA fragment adapter
        forwards to ``LMergeBase.process_batch``).
        """
        tracer = self.tracer
        if tracer.enabled:
            out_before = self.elements_out
            receive = self.receive
            for element in elements:
                receive(element, port)
            tracer.record(
                "receive_batch", self.name,
                port=port, n=len(elements),
                out=self.elements_out - out_before,
            )
            return
        receive = self.receive
        for element in elements:
            receive(element, port)

    def receive_columns(self, batch, port: int = 0) -> None:
        """Deliver a :class:`~repro.engine.columnar.ColumnBatch` to one
        port.

        Default: materialize through the batch's boundary converter and
        fall back to :meth:`receive_batch`, so every operator accepts
        columnar batches.  Operators on the columnar hot path override
        to walk the columns without building element objects (the
        exchange's ``ShardUnion``).
        """
        self.receive_batch(batch.to_elements(), port)

    def emit(self, element: Element) -> None:
        """Push one element to every subscriber."""
        self.elements_out += 1
        for downstream, port in self._subscribers:
            downstream.receive(element, port)

    def emit_columns(self, batch) -> None:
        """Push a :class:`~repro.engine.columnar.ColumnBatch` to every
        subscriber (columnar counterpart of :meth:`emit_batch`)."""
        n = len(batch)
        if not n:
            return
        self.elements_out += n
        for downstream, port in self._subscribers:
            downstream.receive_columns(batch, port)

    def emit_batch(self, elements: Sequence[Element]) -> None:
        """Push a slice of consecutive elements to every subscriber.

        The counterpart of :meth:`receive_batch` on the producing side:
        one call per subscriber instead of one per element, so batch-aware
        consumers see the whole slice.
        """
        if not elements:
            return
        self.elements_out += len(elements)
        for downstream, port in self._subscribers:
            downstream.receive_batch(elements, port)

    def on_insert(self, element: Insert, port: int) -> None:
        raise NotImplementedError(f"{self.name} does not handle insert()")

    def on_adjust(self, element: Adjust, port: int) -> None:
        raise NotImplementedError(f"{self.name} does not handle adjust()")

    def on_stable(self, vc: Timestamp, port: int) -> None:
        raise NotImplementedError(f"{self.name} does not handle stable()")

    def flush(self) -> None:
        """End-of-stream hook; default forwards to upstream-less state."""

    # ------------------------------------------------------------------
    # Feedback (Section V-D)
    # ------------------------------------------------------------------

    def on_feedback(self, signal: FeedbackSignal) -> None:
        """Handle "not interested before horizon".

        Default behaviour: purge nothing locally, propagate upstream —
        subclasses with state or per-element cost override and then call
        ``super().on_feedback(signal)`` to keep the signal travelling.
        """
        self.propagate_feedback(signal)

    def propagate_feedback(self, signal: FeedbackSignal) -> None:
        for upstream in self._upstreams:
            upstream.on_feedback(signal)

    # ------------------------------------------------------------------
    # Properties & accounting
    # ------------------------------------------------------------------

    def derive_properties(
        self, input_properties: List[StreamProperties]
    ) -> StreamProperties:
        """Output stream properties given the input properties.

        Default: no guarantees survive (safe for any operator).
        """
        return StreamProperties.unknown()

    def memory_bytes(self) -> int:
        """Approximate retained state; stateless operators report 0."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"


class CollectorSink(Operator):
    """Terminal operator that records everything it receives."""

    kind = "sink"

    def __init__(self, name: str = "sink"):
        super().__init__(name)
        self.stream = PhysicalStream(name=name)

    def receive(self, element: Element, port: int = 0) -> None:
        self.elements_in += 1
        self.stream.append(element)

    def receive_batch(self, elements: Sequence[Element], port: int = 0) -> None:
        self.elements_in += len(elements)
        self.stream.extend(elements)

    def derive_properties(self, input_properties):
        return input_properties[0] if input_properties else StreamProperties.unknown()


class CallbackSink(Operator):
    """Terminal operator invoking a callback per element."""

    kind = "sink"

    def __init__(self, callback: Callable[[Element], None], name: str = "callback"):
        super().__init__(name)
        self._callback = callback

    def receive(self, element: Element, port: int = 0) -> None:
        self.elements_in += 1
        self._callback(element)
