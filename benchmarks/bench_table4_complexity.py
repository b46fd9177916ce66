"""Table IV — Runtime and space complexity of the LMerge algorithms.

Verifies the table's *scaling shapes* empirically:

* R0/R1/R2 space is O(1)/O(s)/O(g*p) — independent of the number of live
  events w;
* R3/R4 space is O(w(p+s)) — linear in the live-event count;
* R0 insert cost is O(1) while R3 insert cost is O(lg w): doubling w
  repeatedly must grow R3's per-insert time sub-linearly (logarithmically)
  and leave R0's flat; LMR4, which finds its keys by hash and keeps only
  the distinct Vs values ordered, is held to the same bound;
* retiring the oldest keys of in3t, one walk each, and adding new Vs
  values inside its window cost the same per key whatever w is — an
  ordered set that is one flat list (``list.insert`` / ``del list[0]``)
  passes every functional test and fails here.
"""

import statistics
import time

import pytest

from repro.lmerge.r0 import LMergeR0
from repro.lmerge.r3 import LMergeR3
from repro.lmerge.r4 import LMergeR4
from repro.streams.generator import GeneratorConfig, StreamGenerator
from repro.structures.in3t import In3T
from repro.structures.sortedkeys import SortedKeys
from repro.temporal.elements import Insert

from conftest import fmt_bytes, run_merge, series_benchmark

LIVE_COUNTS = [1000, 2000, 4000, 8000]


def workload_with_live_events(w, blob=50):
    """A stream whose first w inserts all stay alive (no punctuation)."""
    config = GeneratorConfig(
        count=w,
        seed=59,
        disorder=0.0,
        min_gap=1,
        stable_freq=0.0,
        payload_blob_bytes=blob,
        event_duration=10 * w,
        final_stable=False,
    )
    return StreamGenerator(config).generate()


def per_insert_time(merge, stream, probe_count=2000):
    """Load *stream* into *merge*, then time additional probe inserts."""
    merge.attach(0)
    for element in stream:
        merge.process(element, 0)
    base_vs = max(e.vs for e in stream.data_elements()) + 1
    probes = [
        Insert((i, "probe"), base_vs + i, base_vs + i + 10**6)
        for i in range(probe_count)
    ]
    start = time.perf_counter()
    for probe in probes:
        merge.process(probe, 0)
    return (time.perf_counter() - start) / probe_count


@series_benchmark
def test_table4_space_scaling(report):
    report("Table IV (space): merge state vs live events w")
    report(f"{'w':>8}{'LMR0':>10}{'LMR3+':>12}{'LMR4':>12}")
    r0_mem, r3_mem, r4_mem = [], [], []
    for w in LIVE_COUNTS:
        stream = workload_with_live_events(w)
        row = f"{w:>8}"
        for cls, series in ((LMergeR0, r0_mem), (LMergeR3, r3_mem), (LMergeR4, r4_mem)):
            merge = cls()
            run_merge(merge, [stream])
            series.append(merge.memory_bytes())
            row += f"{fmt_bytes(series[-1]):>12}"
        report(row)
    # O(1) for R0; O(w*) for the general algorithms (8x live events ->
    # ~8x state, within 25%).
    assert r0_mem[0] == r0_mem[-1]
    for series in (r3_mem, r4_mem):
        growth = series[-1] / series[0]
        assert 6.0 < growth < 10.0


@series_benchmark
def test_table4_insert_time_scaling(report):
    report("Table IV (time): per-insert cost vs live events w")
    report(f"{'w':>8}{'LMR0 (us)':>12}{'LMR3+ (us)':>12}{'LMR4 (us)':>12}")
    r0_times, r3_times, r4_times = [], [], []
    for w in LIVE_COUNTS:
        stream = workload_with_live_events(w, blob=8)
        row = f"{w:>8}"
        for cls, series in (
            (LMergeR0, r0_times), (LMergeR3, r3_times), (LMergeR4, r4_times)
        ):
            series.append(
                statistics.median(
                    per_insert_time(cls(), stream) for _ in range(3)
                )
            )
            row += f"{series[-1] * 1e6:>12.2f}"
        report(row)
    # R0 is O(1): cost at 8x the live events stays within noise (2x).
    assert r0_times[-1] < 2 * r0_times[0] + 1e-6
    # R3 is O(lg w): cost grows, but far slower than linearly — an 8x
    # state increase may cost at most ~2.5x per insert (lg8 = 3 levels).
    # R4's probes are appends to its ordered Vs values: the same bound.
    assert r3_times[-1] < 2.5 * r3_times[0]
    assert r4_times[-1] < 2.5 * r4_times[0]


def in3t_with_live_keys(w):
    """w keys on the even Vs values, so the odd ones are new to the window."""
    index = In3T()
    for vs in range(0, 2 * w, 2):
        index.find_or_add(Insert("live", vs, vs + 1)).increment(0, vs + 1)
    return index


def per_key_retire_time(w, retired=1000):
    """Retire the *retired* oldest of w keys, one walk per key."""
    index = in3t_with_live_keys(w)
    start = time.perf_counter()
    for vs in range(0, 2 * retired, 2):
        index.prune_below(vs + 1)
    assert len(index) == w - retired
    return (time.perf_counter() - start) / retired


def per_key_window_insert_time(w, probes=1000):
    """Insert *probes* new Vs values scattered inside a window of w: the
    ordered set alone, so that no dict's cache misses blur its shape."""
    order = SortedKeys()
    order.update(range(0, 2 * w, 2))
    scattered = [2 * (i * 7919 % w) + 1 for i in range(probes)]
    start = time.perf_counter()
    for vs in scattered:
        order.add(vs)
    elapsed = time.perf_counter() - start
    assert sum(1 for _ in order) == w + probes
    return elapsed / probes


@series_benchmark
def test_table4_in3t_order_cost_is_flat_in_w(report):
    report("Table IV (in3t order): per-key cost vs resident keys w")
    report(f"{'w':>8}{'retire oldest (us)':>20}{'new Vs in window (us)':>24}")
    sizes = [1000, 8000, 64000]
    retire, insert = [], []
    for w in sizes:
        retire.append(
            statistics.median(per_key_retire_time(w) for _ in range(5))
        )
        insert.append(
            statistics.median(per_key_window_insert_time(w) for _ in range(5))
        )
        report(f"{w:>8}{retire[-1] * 1e6:>20.2f}{insert[-1] * 1e6:>24.2f}")
    # One flat list shifts w pointers per retired key: ~1 us at w = 8,000
    # and ~10 us at 64,000, against ~3 us for the walk itself — the last
    # row is the one a flat list cannot pass.
    assert retire[1] < 1.5 * retire[0] + 0.2e-6
    assert retire[2] < 2.0 * retire[0] + 0.2e-6
    # O(lg r + chunk): the chunk is bounded, lg r is a bisection; a flat
    # list is ~20x dearer at the last row.
    assert insert[1] < 2.5 * insert[0]
    assert insert[2] < 2.5 * insert[0] + 0.2e-6


@series_benchmark
def test_table4_r1_space_scales_with_inputs_only(report):
    from repro.lmerge.r1 import LMergeR1

    stream = workload_with_live_events(2000)
    small = LMergeR1()
    run_merge(small, [stream] * 2)
    large = LMergeR1()
    run_merge(large, [stream] * 10)
    report(
        f"Table IV: LMR1 state at 2 inputs {small.memory_bytes()}B, "
        f"10 inputs {large.memory_bytes()}B (O(s))"
    )
    assert large.memory_bytes() > small.memory_bytes()
    assert large.memory_bytes() < 1000  # still tiny: counters only


@pytest.mark.parametrize("w", [1000, 8000])
def test_table4_benchmark(benchmark, w):
    stream = workload_with_live_events(w, blob=8)

    def run():
        merge = LMergeR3()
        return run_merge(merge, [stream])["elements"]

    benchmark(run)
