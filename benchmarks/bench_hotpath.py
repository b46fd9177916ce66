"""Batched hot-path execution — per-element vs batched ingestion.

Not a paper figure: this bench tracks the repo's own batched execution
mode (``LMergeBase.process_batch`` + the R0-R4 fast paths) against the
per-element baseline.  Elements/sec are recorded for every variant on its
natural workload; the headline claims are asserted:

* batched >= 1.5x per-element for LMR1 on in-order input;
* batched >= 1.5x per-element for LMR3+ on general (disordered) input;
* disabled observability (the NullTracer guard in ``process_batch``)
  costs under 5% vs a replica of the uninstrumented inner loop.

The per-variant pytest-benchmark entries keep the batched path in the
BENCH json trajectory so regressions show up run-to-run.
"""

import time

import pytest

from repro.engine.parallel import available_cores
from repro.lmerge.base import InputStateError, interleave_batches

from conftest import (
    ALL_VARIANTS,
    disordered_workload,
    ordered_workload,
    run_merge,
    run_merge_batched,
    series_benchmark,
)

N_INPUTS = 3
COUNT = 5000

#: Variants whose restrictions admit the in-order workload only.
ORDERED_ONLY = ("LMR0", "LMR1", "LMR2")


def _workload_for(name):
    if name in ORDERED_ONLY:
        return [ordered_workload(count=COUNT, blob=30)] * N_INPUTS
    return [disordered_workload(count=COUNT, blob=30)] * N_INPUTS


def _best_throughputs(variant_cls, streams, reps=3):
    """Best-of-*reps* elements/sec for the two ingestion modes."""
    per_element = 0.0
    batched = 0.0
    for _ in range(reps):
        per_element = max(
            per_element, run_merge(variant_cls(), streams)["throughput"]
        )
        batched = max(
            batched, run_merge_batched(variant_cls(), streams)["throughput"]
        )
    return per_element, batched


@series_benchmark
def test_hotpath_speedup_series(report):
    report(f"Batched hot path: elements/s, {N_INPUTS} inputs, "
           f"{COUNT} elements per stream")
    speedups = {}
    for name, cls in ALL_VARIANTS.items():
        streams = _workload_for(name)
        per_element, batched = _best_throughputs(cls, streams)
        speedups[name] = batched / per_element
        report(f"  {name:>6}: per-element {per_element:>12,.0f}"
               f"  batched {batched:>12,.0f}  ({speedups[name]:.2f}x)")
    # The tentpole claims: batching pays off where per-element overhead
    # dominates (R1's counter scan) and where the index pays double
    # descents per insert (R3's find+add vs find_or_add).
    assert speedups["LMR1"] >= 1.5
    assert speedups["LMR3+"] >= 1.5
    # Batching must never be a pessimization on any variant.
    assert all(speedup >= 1.0 for speedup in speedups.values())


def test_batched_output_equivalent():
    """The bench's two drivers agree element-for-element when stable
    coalescing is off (the property the speedup must not cost)."""
    for name, cls in ALL_VARIANTS.items():
        per = cls()
        out_per = per.merge(_workload_for(name), schedule="sequential")
        bat = cls()
        out_bat = bat.merge(
            _workload_for(name), schedule="sequential", batch_size=64
        )
        assert list(out_per) == list(out_bat), name
        assert per.stats == bat.stats, name


def _untraced_process_batch(merge, elements, stream_id, *, coalesce_stables=False):
    """``LMergeBase.process_batch`` minus its tracer lines, so the budget
    below charges tracing and nothing else (``tests/test_obs_overhead.py``
    fails when the two drift apart)."""
    state = merge._inputs.get(stream_id)
    if state is None:
        raise InputStateError(
            f"batch from unattached stream {stream_id!r}"
        )
    dispatch = merge._batch_dispatch
    i = 0
    n = len(elements)
    while i < n:
        cls = elements[i].__class__
        j = i + 1
        while j < n and elements[j].__class__ is cls:
            j += 1
        handler = dispatch.get(cls)
        if handler is None:
            raise TypeError(f"not a stream element: {elements[i]!r}")
        handler(elements[i:j], stream_id, state, coalesce_stables)
        i = j


@pytest.mark.skipif(
    available_cores() < 2,
    reason="timing budget needs an unloaded core; host has <2",
)
@series_benchmark
def test_nulltracer_overhead_series(report):
    """Disabled observability must cost <5% on the batched hot path."""
    report("NullTracer guard overhead vs uninstrumented inner loop")
    for name in ("LMR1", "LMR3+"):
        cls = ALL_VARIANTS[name]
        streams = _workload_for(name)
        chunks = list(interleave_batches(streams, "round_robin", 0, 64))

        def timed(use_replica):
            merge = cls()
            for stream_id in range(len(streams)):
                merge.attach(stream_id)
            start = time.perf_counter()
            if use_replica:
                for chunk, stream_id in chunks:
                    _untraced_process_batch(merge, chunk, stream_id)
            else:
                for chunk, stream_id in chunks:
                    merge.process_batch(chunk, stream_id)
            return time.perf_counter() - start

        shipped, replica = float("inf"), float("inf")
        for _ in range(7):  # interleaved, so host drift hits both arms
            shipped = min(shipped, timed(False))
            replica = min(replica, timed(True))
        slowdown = shipped / replica
        report(f"  {name:>6}: shipped {shipped:.4f}s  "
               f"replica {replica:.4f}s  ({slowdown - 1:+.1%})")
        assert slowdown <= 1.05, (
            f"{name}: disabled tracing costs {slowdown - 1:.1%} (budget 5%)"
        )


@pytest.mark.parametrize("name", list(ALL_VARIANTS))
def test_hotpath_batched_benchmark(benchmark, name):
    """Per-variant batched throughput in the benchmark json trajectory."""
    streams = _workload_for(name)
    variant = ALL_VARIANTS[name]

    def run():
        merge = variant()
        return run_merge_batched(merge, streams)["elements"]

    assert benchmark(run) == N_INPUTS * len(streams[0])
