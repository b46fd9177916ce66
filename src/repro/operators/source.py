"""Stream sources."""

from __future__ import annotations

from typing import List, Optional

from repro.engine.operator import Operator
from repro.lmerge.feedback import FeedbackSignal
from repro.streams.properties import StreamProperties, measure_properties
from repro.streams.stream import PhysicalStream
from repro.temporal.elements import Adjust, Insert


class StreamSource(Operator):
    """Replays a :class:`~repro.streams.stream.PhysicalStream` downstream.

    *properties* are the guarantees the source stipulates (Section IV-G
    route 1); when omitted they are measured from the stream itself, which
    is sound for replay but unavailable to a real compile-time optimizer —
    pass explicit properties to model that case.

    Responds to feedback by skipping not-yet-played elements that only
    matter before the horizon (the upstream end of Section V-D
    fast-forwarding).
    """

    kind = "source"

    def __init__(
        self,
        stream: PhysicalStream,
        properties: Optional[StreamProperties] = None,
        name: str = "source",
    ):
        super().__init__(name)
        self.stream = stream
        self._properties = (
            properties if properties is not None else measure_properties(stream)
        )
        self._cursor = 0
        self._horizon = float("-inf")
        self.skipped = 0

    def play(self, limit: Optional[int] = None) -> int:
        """Emit up to *limit* elements (all remaining when None).

        Returns the number of elements emitted (skipped ones count toward
        *limit* but are not emitted).
        """
        emitted = 0
        budget = len(self.stream) if limit is None else limit
        while self._cursor < len(self.stream) and budget > 0:
            element = self.stream[self._cursor]
            self._cursor += 1
            budget -= 1
            if self._skippable(element):
                self.skipped += 1
                continue
            self.emit(element)
            emitted += 1
        return emitted

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self.stream)

    def _skippable(self, element) -> bool:
        if isinstance(element, Insert):
            return element.ve < self._horizon
        if isinstance(element, Adjust):
            return max(element.v_old, element.ve) < self._horizon
        return False

    def on_feedback(self, signal: FeedbackSignal) -> None:
        if signal.horizon > self._horizon:
            self._horizon = signal.horizon
        # Sources have no upstream; the signal stops here.

    def derive_properties(self, input_properties: List[StreamProperties]):
        return self._properties
