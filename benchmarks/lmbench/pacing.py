"""Pure arithmetic of the paced (open-loop) phase and its statistics.

Nothing here touches ``repro`` or the clock, so the self-tests in
``tests/`` can pin every rule down with hand-computed numbers:

* the pacer's due-time schedule (:func:`due_time`);
* the enabling-step index that CTI latency is measured from
  (:func:`running_max_stable`, :func:`enabling_step`) and the sample one
  driver call yields (:func:`frontier_wait`);
* the percentile / sample-count rule of the choosing-metrics guide
  (:func:`percentile`, :func:`highest_supported_percentile`);
* the spread every bound is compared with (:func:`iqr_share`).
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left
from typing import Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def due_time(start: float, step: int, first_step: int, interval: float) -> float:
    """When *step* of a paced window that began at *start* with
    *first_step* is due.  The schedule is fixed before the run: it never
    stretches because an earlier step ran late (open loop)."""
    return start + (step - first_step) * interval


def step_interval(batch: int, rate_eps: float) -> float:
    """Seconds between due times at *rate_eps* input elements per second
    with *batch* elements per step."""
    if rate_eps <= 0:
        raise ValueError(f"paced rate must be positive, got {rate_eps}")
    return batch / rate_eps


def paced_window(total_steps: int, batch: int, rate_eps: float, seconds: float) -> int:
    """First step of the paced window: the window is the *last*
    ``rate * seconds / batch`` steps of the stream (so the plan reaches
    its final stable inside it and the output stays checkable); earlier
    steps are fast-forwarded outside the clock."""
    wanted = max(1, int(rate_eps * seconds / batch))
    return max(0, total_steps - wanted)


def running_max_stable(step_stables: Iterable[Optional[float]]) -> List[float]:
    """Per step, the largest input ``stable()`` submitted up to and
    including that step (``-inf`` before the first)."""
    best = float("-inf")
    out: List[float] = []
    for vc in step_stables:
        if vc is not None and vc > best:
            best = vc
        out.append(best)
    return out


def enabling_step(stable_so_far: Sequence[float], t: float) -> Optional[int]:
    """The first step after which some input had promised ``stable >= t``.

    An output ``Stable(t)`` cannot be emitted before that step is
    submitted, so CTI latency runs from that step's *due* time.  ``None``
    when no submitted step enables *t* (the output would be wrong).
    """
    index = bisect_left(stable_so_far, t)
    return index if index < len(stable_so_far) else None


def frontier_wait(
    new_stables: Iterable[float],
    stable_so_far: Sequence[float],
    first_step: int,
    start: float,
    interval: float,
    now: float,
) -> Optional[float]:
    """The CTI latency sample of one driver call that returned at *now*
    and made the output ``Stable``s *new_stables* visible: the wait of
    the oldest promise among them, from its enabling step's due time.

    One sample per call, not per ``Stable``: a step holding three
    punctuations would otherwise count three times and put the median on
    the edge between one reconcile walk and several.  Stables enabled
    before the paced window (``first_step``) have no due time and give
    no sample.
    """
    waited = None
    for t in new_stables:
        step = enabling_step(stable_so_far, t)
        if step is not None and step >= first_step:
            wait = now - due_time(start, step, first_step, interval)
            if waited is None or wait > waited:
                waited = wait
    return waited


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile *q* in a sample of *n*."""
    return max(1, math.ceil(n * q / 100.0))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    return sorted_values[_rank(len(sorted_values), q) - 1]


def highest_supported_percentile(
    n: int, candidates: Sequence[float] = (50.0, 90.0, 95.0, 99.0, 99.9)
) -> Optional[float]:
    """The highest candidate percentile with at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it, or ``None``."""
    best = None
    for q in candidates:
        if n - _rank(n, q) >= MIN_SAMPLES_BEYOND:
            best = q
    return best


def summarize(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(p50, p95, n)`` of a latency sample; p95 falls back to the
    highest percentile the sample supports (p50 at worst)."""
    ordered = sorted(values)
    n = len(ordered)
    supported = highest_supported_percentile(n, (50.0, 90.0, 95.0))
    tail_q = supported if supported is not None else 50.0
    return percentile(ordered, 50.0), percentile(ordered, tail_q), n


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the spread the benchmark contract compares with a bound."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0
