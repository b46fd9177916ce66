"""User-defined selection functions with value-dependent cost.

The Figure 10 workload: two semantically identical plans whose UDFs are
expensive on *different* payload-value bands — ``UDF0`` slow on small X,
``UDF1`` slow on large X — so the optimal plan flips whenever the data
distribution shifts.  :class:`ValueBandCost` is the cost model consumed by
:class:`~repro.engine.simulation.SimulatedPlan` (simulated seconds per
element); :class:`UdfFilter` is the in-plan operator, which also burns
real CPU when ``spin`` is enabled so wall-clock benches can exercise it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.engine.operator import Operator
from repro.lmerge.feedback import FeedbackSignal
from repro.streams.properties import StreamProperties
from repro.temporal.elements import Adjust, Element, Insert, Stable
from repro.temporal.event import Payload
from repro.temporal.time import Timestamp


@dataclass(frozen=True)
class ValueBandCost:
    """Per-element cost (simulated seconds), split at a value threshold.

    ``value_of(payload)`` extracts X; elements with ``X < threshold`` cost
    ``low_band_cost``, others ``high_band_cost``.  UDF0 of the paper is
    ``ValueBandCost(threshold, expensive, cheap)`` (slow on small X) and
    UDF1 the reverse.
    """

    threshold: float
    below_cost: float
    above_cost: float
    value_of: Callable[[Payload], float] = lambda payload: payload[0]

    def cost(self, element: Element) -> float:
        if isinstance(element, Stable):
            return 0.0
        x = self.value_of(element.payload)
        return self.below_cost if x < self.threshold else self.above_cost


class UdfFilter(Operator):
    """Selection by an arbitrary (expensive) user predicate.

    Cooperates with feedback (Section V-D): once the horizon passes an
    element's relevance the element is dropped without evaluating the
    predicate — it can no longer influence the merged output, which will
    discard it anyway as already-frozen.  ``cost_model``
    makes the expense visible to the simulator; ``spin`` > 0 burns that
    many real microseconds per evaluated element for wall-clock benches.
    """

    kind = "udf"

    def __init__(
        self,
        predicate: Callable[[Payload], bool],
        cost_model: Optional[ValueBandCost] = None,
        spin: float = 0.0,
        name: str = "udf",
    ):
        super().__init__(name)
        self.predicate = predicate
        self.cost_model = cost_model
        self.spin = spin
        self._horizon: Timestamp = float("-inf")
        self.evaluated = 0
        self.skipped = 0

    # -- cost ---------------------------------------------------------------

    def cost(self, element: Element) -> float:
        """Simulated seconds this element would cost (0 when skippable)."""
        if self._skippable(element) or self.cost_model is None:
            return 0.0
        return self.cost_model.cost(element)

    def _skippable(self, element: Element) -> bool:
        if isinstance(element, Insert):
            return element.ve < self._horizon
        if isinstance(element, Adjust):
            return max(element.v_old, element.ve) < self._horizon
        return False

    def _evaluate(self, payload: Payload) -> bool:
        self.evaluated += 1
        if self.spin > 0.0:
            import time

            deadline = time.perf_counter() + self.spin * 1e-6
            while time.perf_counter() < deadline:
                pass
        return self.predicate(payload)

    # -- element handlers -----------------------------------------------------

    def on_insert(self, element: Insert, port: int) -> None:
        if self._skippable(element):
            self.skipped += 1
            return
        if self._evaluate(element.payload):
            self.emit(element)

    def on_adjust(self, element: Adjust, port: int) -> None:
        if self._skippable(element):
            self.skipped += 1
            return
        if self._evaluate(element.payload):
            self.emit(element)

    def on_stable(self, vc: Timestamp, port: int) -> None:
        self.emit(Stable(vc))

    def on_feedback(self, signal: FeedbackSignal) -> None:
        if signal.horizon > self._horizon:
            self._horizon = signal.horizon
        self.propagate_feedback(signal)

    def derive_properties(
        self, input_properties: List[StreamProperties]
    ) -> StreamProperties:
        # A selection preserves guarantees — but with feedback enabled the
        # operator may *drop* elements other replicas keep, which is
        # exactly the missing-element regime of Section V-C; the merge's
        # algorithm choice is unaffected (the key property survives).
        if not input_properties:
            return StreamProperties.unknown()
        return input_properties[0]
