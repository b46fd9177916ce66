"""Shared workload builders and reporting for the evaluation benches.

Every file in this directory regenerates one table or figure of the
paper's Section VI.  Conventions:

* each bench prints the figure's series (rows of the sweep) through the
  ``report`` fixture, which bypasses pytest's capture so the output lands
  in ``pytest benchmarks/ --benchmark-only | tee bench_output.txt``;
* the pytest-benchmark fixture times one representative configuration per
  competitor so relative throughput is also tracked run-to-run;
* absolute numbers differ from the paper (Python on this container vs C#
  on the authors' 8-core server); the *shapes* — who wins, by what
  factor, where crossovers fall — are asserted where the paper claims
  them and recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import pytest

from repro.engine.operator import CollectorSink
from repro.lmerge.base import LMergeBase, interleave_batches
from repro.lmerge.r0 import LMergeR0
from repro.lmerge.r1 import LMergeR1
from repro.lmerge.r2 import LMergeR2
from repro.lmerge.r3 import LMergeR3
from repro.lmerge.r3_naive import LMergeR3Naive
from repro.lmerge.r4 import LMergeR4
from repro.operators.aggregate import AggregateMode, GroupedCount
from repro.streams.divergence import diverge
from repro.streams.generator import GeneratorConfig, StreamGenerator
from repro.streams.stream import PhysicalStream

ALL_VARIANTS = {
    "LMR0": LMergeR0,
    "LMR1": LMergeR1,
    "LMR2": LMergeR2,
    "LMR3+": LMergeR3,
    "LMR3-": LMergeR3Naive,
    "LMR4": LMergeR4,
}

GENERAL_VARIANTS = {
    "LMR3+": LMergeR3,
    "LMR3-": LMergeR3Naive,
    "LMR4": LMergeR4,
}


def series_benchmark(test_fn):
    """Run a figure-series test once under the pytest-benchmark fixture.

    ``pytest benchmarks/ --benchmark-only`` skips tests that do not use
    the ``benchmark`` fixture; the figure sweeps are the deliverable, so
    this decorator wraps them in ``benchmark.pedantic(..., rounds=1)`` —
    they are timed once and their printed series land in the bench log.
    A series that returns its table as a dict has it recorded under
    ``extra_info`` in the run's ``--benchmark-json`` file.
    """
    import inspect

    original = inspect.signature(test_fn)
    parameters = list(original.parameters.values())
    if "benchmark" not in original.parameters:
        parameters = parameters + [
            inspect.Parameter("benchmark", inspect.Parameter.POSITIONAL_OR_KEYWORD)
        ]

    def wrapper(**kwargs):
        benchmark = kwargs.pop("benchmark")
        results = benchmark.pedantic(
            lambda: test_fn(**kwargs), rounds=1, iterations=1
        )
        if results:
            benchmark.extra_info.update(results)

    wrapper.__name__ = test_fn.__name__
    wrapper.__doc__ = test_fn.__doc__
    wrapper.__signature__ = original.replace(parameters=parameters)
    return wrapper


@pytest.fixture
def report(capsys):
    """Print figure rows past pytest's output capture."""

    def _print(*parts) -> None:
        with capsys.disabled():
            print(*parts)

    _print("")  # start each bench's block on a fresh line
    return _print


def ordered_workload(
    count: int = 5000, seed: int = 0, blob: int = 100
) -> PhysicalStream:
    """In-order, insert-only, strictly increasing Vs: valid for every
    variant (the Figures 2/3 workload)."""
    config = GeneratorConfig(
        count=count,
        seed=seed,
        disorder=0.0,
        min_gap=1,
        payload_blob_bytes=blob,
        stable_freq=0.01,
        event_duration=1000,
    )
    return StreamGenerator(config).generate()


def disordered_workload(
    count: int = 5000,
    seed: int = 0,
    disorder: float = 0.2,
    stable_freq: float = 0.01,
    blob: int = 100,
    event_duration: int = 1000,
) -> PhysicalStream:
    config = GeneratorConfig(
        count=count,
        seed=seed,
        disorder=disorder,
        stable_freq=stable_freq,
        payload_blob_bytes=blob,
        event_duration=event_duration,
    )
    return StreamGenerator(config).generate()


def aggregate_fragment_output(
    base: PhysicalStream,
    replica_seed: int,
    window: int = 200,
    reorder: bool = True,
    group_bytes: int = 0,
    lifetime: Optional[int] = None,
) -> PhysicalStream:
    """One replica of the Figure 4/7 query fragment — the paper's recipe
    verbatim: "aggregate (count) followed by a lifetime modification".

    A divergent copy of the base stream feeds a *speculative* grouped
    aggregate, so revisions are triggered exactly by disordered stragglers
    (the paper reports ~36% adjusts at 50% disorder); an AlterLifetime
    stretches the result events to *lifetime* time units (long lifetimes
    are what make the enforcement strategy's buffering expensive).
    ``group_bytes`` pads the group identifier so result payloads carry the
    paper's ~1KB weight.
    """
    from repro.operators.alter_lifetime import AlterLifetime
    from repro.operators.source import StreamSource

    if group_bytes:
        def key_fn(payload):
            return f"group-{payload[0] % 40:04d}-".ljust(group_bytes, "x")
    else:
        def key_fn(payload):
            return payload[0] % 40

    source = StreamSource(diverge(base, seed=replica_seed, reorder=reorder))
    aggregate = GroupedCount(
        window=window, key_fn=key_fn, mode=AggregateMode.SPECULATIVE
    )
    sink = CollectorSink()
    source.subscribe(aggregate)
    if lifetime is not None:
        alter = AlterLifetime(duration=lifetime)
        aggregate.subscribe(alter)
        alter.subscribe(sink)
    else:
        aggregate.subscribe(sink)
    source.play()
    return sink.stream


def run_merge(
    merge: LMergeBase,
    inputs: Sequence[PhysicalStream],
    schedule: str = "round_robin",
    memory_every: Optional[int] = None,
) -> Dict[str, float]:
    """Drive a merge to completion; returns throughput-relevant stats."""
    import time

    streams = list(inputs)
    for stream_id in range(len(streams)):
        if not merge.is_attached(stream_id):
            merge.attach(stream_id)
    peak_memory = 0
    peak_nodes = 0
    processed = 0
    start = time.perf_counter()
    for (element,), stream_id in interleave_batches(streams, schedule, 0, 1):
        merge.process(element, stream_id)
        processed += 1
        if memory_every and processed % memory_every == 0:
            memory = merge.memory_bytes()
            if memory > peak_memory:
                peak_memory = memory
            nodes = getattr(merge, "index_nodes", 0)
            if nodes > peak_nodes:
                peak_nodes = nodes
    elapsed = time.perf_counter() - start
    if memory_every:
        peak_memory = max(peak_memory, merge.memory_bytes())
        peak_nodes = max(peak_nodes, getattr(merge, "index_nodes", 0))
    return {
        "elements": processed,
        "seconds": elapsed,
        "throughput": processed / elapsed if elapsed > 0 else float("inf"),
        "peak_memory": peak_memory,
        "peak_index_nodes": peak_nodes,
        "adjusts_out": merge.stats.adjusts_out,
        "elements_out": merge.stats.elements_out,
    }


def run_merge_batched(
    merge: LMergeBase,
    inputs: Sequence[PhysicalStream],
    schedule: str = "round_robin",
    batch_size: int = 64,
    coalesce_stables: bool = True,
) -> Dict[str, float]:
    """Batched counterpart of :func:`run_merge` (the bench_hotpath driver).

    Same total elements, same schedules, but delivered in *batch_size*
    slices through ``process_batch`` with stable-coalescing on — the
    throughput configuration of the batched hot path.
    """
    import time

    streams = list(inputs)
    for stream_id in range(len(streams)):
        if not merge.is_attached(stream_id):
            merge.attach(stream_id)
    chunks = list(interleave_batches(streams, schedule, 0, batch_size))
    processed = 0
    start = time.perf_counter()
    for chunk, stream_id in chunks:
        merge.process_batch(
            chunk, stream_id, coalesce_stables=coalesce_stables
        )
        processed += len(chunk)
    elapsed = time.perf_counter() - start
    return {
        "elements": processed,
        "seconds": elapsed,
        "throughput": processed / elapsed if elapsed > 0 else float("inf"),
        "adjusts_out": merge.stats.adjusts_out,
        "elements_out": merge.stats.elements_out,
    }


def run_merge_columnar(
    merge: LMergeBase,
    inputs: Sequence[PhysicalStream],
    schedule: str = "round_robin",
    batch_size: int = 64,
    coalesce_stables: bool = True,
) -> Dict[str, float]:
    """Columnar counterpart of :func:`run_merge_batched`.

    Identical interleaving and batch size, but each micro-batch is a
    wire-decoded :class:`~repro.engine.columnar.ColumnBatch` driven
    through ``process_columns``, so the clock covers what a worker pays
    on top of ``process_batch``: materializing the rows.  Batches are
    encoded and decoded outside the clock (mirroring the batched
    driver's pre-chunking); ``from_elements`` / ``encode`` are charged
    to the producer in the exchange benches.
    """
    import time

    from repro.engine.columnar import ColumnBatch

    streams = list(inputs)
    for stream_id in range(len(streams)):
        if not merge.is_attached(stream_id):
            merge.attach(stream_id)
    chunks = [
        (
            ColumnBatch.decode(ColumnBatch.from_elements(list(chunk)).encode()),
            stream_id,
        )
        for chunk, stream_id in interleave_batches(
            streams, schedule, 0, batch_size
        )
    ]
    processed = 0
    start = time.perf_counter()
    for batch, stream_id in chunks:
        merge.process_columns(
            batch, stream_id, coalesce_stables=coalesce_stables
        )
        processed += len(batch)
    elapsed = time.perf_counter() - start
    return {
        "elements": processed,
        "seconds": elapsed,
        "throughput": processed / elapsed if elapsed > 0 else float("inf"),
        "adjusts_out": merge.stats.adjusts_out,
        "elements_out": merge.stats.elements_out,
    }


def run_merge_sharded(
    merge_cls,
    inputs: Sequence[PhysicalStream],
    num_shards: int,
    backend: str = "thread",
    schedule: str = "round_robin",
    batch_size: int = 64,
    coalesce_stables: bool = True,
    **merge_kwargs,
) -> Dict[str, float]:
    """Sharded counterpart of :func:`run_merge_batched`.

    Same interleaving and batch size, but the micro-batches flow through
    an N-shard partitioned plan (``partition_columns`` -> per-shard
    workers -> ``ShardUnion``).  The clock includes the final drain (``close``), so
    worker startup/teardown is charged to the run like any exchange cost.
    """
    import time

    from repro.lmerge.sharded import ShardedLMerge

    plan = ShardedLMerge(
        merge_cls,
        num_shards,
        backend=backend,
        coalesce_stables=coalesce_stables,
        **merge_kwargs,
    )
    streams = list(inputs)
    for stream_id in range(len(streams)):
        plan.attach(stream_id)
    chunks = list(interleave_batches(streams, schedule, 0, batch_size))
    processed = 0
    start = time.perf_counter()
    for chunk, stream_id in chunks:
        plan.process_batch(chunk, stream_id)
        processed += len(chunk)
    stats = plan.close()
    elapsed = time.perf_counter() - start
    return {
        "elements": processed,
        "seconds": elapsed,
        "throughput": processed / elapsed if elapsed > 0 else float("inf"),
        "adjusts_out": stats.adjusts_out,
        "elements_out": stats.elements_out,
    }


def fmt_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if n < 1024:
            return f"{n:.1f}{unit}"
        n /= 1024
    return f"{n:.1f}TB"
