"""The harness's own span recorder.

Spans are recorded from *outside* the program under test, around the
calls into each layer's public functions (spans inside ``src/repro`` are
a later issue).  A span is ``(id, name, start, end, parent, rep)``; spans
of one traced rep share its rep id.  They stay in memory and are written
out once, when the traced run ends.

Self time follows the choosing-metrics guide: a span's duration minus the
part of that interval its child spans cover.  The recorder is strictly
nested (one driver thread), so children never overlap each other and the
self times of all spans sum to the root spans' durations.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: One recorded span: id, name, start, end, parent id (-1 = root), rep id.
Span = Tuple[int, str, float, float, int, int]


class Recorder:
    """In-memory span recorder with an explicit open-span stack."""

    def __init__(self, rep: int = 0, clock=perf_counter):
        self.rep = rep
        self.clock = clock
        self.spans: List[List] = []
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its id."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([span_id, name, self.clock(), None, parent, self.rep])
        self._stack.append(span_id)
        return span_id

    def end(self, span_id: int) -> float:
        """Close the innermost span (must be *span_id*); returns its
        duration."""
        now = self.clock()
        if not self._stack or self._stack[-1] != span_id:
            raise RuntimeError(f"span {span_id} is not the innermost open span")
        self._stack.pop()
        span = self.spans[span_id]
        span[3] = now
        return now - span[2]

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named *name*."""
        span_id = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span_id)

    def closed(self) -> List[Span]:
        return [tuple(span) for span in self.spans if span[3] is not None]


def dump_spans(path: str, spans: List[Span], extra: Optional[dict] = None) -> None:
    """Write *spans* (and *extra* metadata) as one JSON document."""
    document = {
        "columns": ["id", "name", "start", "end", "parent", "rep"],
        "spans": spans,
    }
    if extra:
        document.update(extra)
    with open(path, "w") as fp:
        json.dump(document, fp)


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Self time per span *name*: duration minus the children's cover."""
    child_cover: Dict[int, float] = {}
    for span_id, _name, start, end, parent, _rep in spans:
        if parent >= 0:
            child_cover[parent] = child_cover.get(parent, 0.0) + (end - start)
    totals: Dict[str, float] = {}
    for span_id, name, start, end, _parent, _rep in spans:
        own = (end - start) - child_cover.get(span_id, 0.0)
        totals[name] = totals.get(name, 0.0) + own
    return totals


def span_counts(spans: List[Span]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for _id, name, _start, _end, _parent, _rep in spans:
        counts[name] = counts.get(name, 0) + 1
    return counts


def root_wall(spans: List[Span]) -> float:
    """Summed duration of the root spans (the traced wall time)."""
    return sum(end - start for _i, _n, start, end, parent, _r in spans if parent < 0)
