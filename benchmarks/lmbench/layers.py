"""The traced run: per-layer numbers measured from outside each layer.

Two kinds of measurement, both made from the benchmark's own files by
calling each layer's **public** functions (spans inside ``src/repro`` are
a later issue):

* **traced passes** — the workload's own path rebuilt with a span around
  every call into a layer: the in-process merge fed kind-homogeneous runs
  (``lmerge.insert`` / ``lmerge.adjust`` / ``lmerge.stable``), and the
  sharded driver loop rebuilt from its public parts (``columnar``,
  ``exchange``, ``parallel``).  Self time = span minus children; the
  spans go to ``trace-<workload>.json``.
* **replay cells** — one layer at a time, replaying the workload's own
  batches / key sequence into a bare structure, codec, ring or runtime.
  ``*_ns`` values are per element (or per call where stated), medians of
  :data:`REPEATS` repeats.

Every number here describes a *layer*; end-to-end numbers never come from
this file.  A cell that raises is counted as failed and reports 0.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import shutil
import statistics
import sys
import time
import traceback
from time import perf_counter, process_time
from typing import Callable, Dict, List, Tuple

from repro.engine import shm as shm_rings
from repro.engine.columnar import ColumnBatch
from repro.engine.operator import CollectorSink
from repro.engine.parallel import ParallelRuntime, merge_factory
from repro.engine.shm import ShmRing
from repro.lmerge import shard
from repro.obs.lmerge_obs import LMergeObserver
from repro.obs.registry import MetricRegistry
from repro.obs.trace import RingTracer
from repro.operators.exchange import (
    ShardUnion,
    identity_key,
    partition_batch,
    partition_columns,
)
from repro.structures import In2T, In3T, RedBlackTree
from repro.structures.sizing import PayloadKey
from repro.temporal.elements import Adjust, Insert, Stable

import rep as rep_module
from pacing import summarize
from spans import Recorder, dump_spans, root_wall, self_times, span_counts
from workloads import BATCH, REPLICAS, VARIANTS, Workload

#: Deliveries of the workload replayed by each cell.  The cells that run
#: a merge several times over (ingest paths, obs) take the short prefix.
CELL_ELEMENTS = 12_000
SHORT_CELL_ELEMENTS = 6_000
#: Repeats behind every ``*_ns`` median.
REPEATS = 5
#: Round trips of the ring wake-up probe.
WAKEUP_TRIPS = 200
SHARDS = 2

Batch = Tuple[int, list]


def median_seconds(fn: Callable[[], float], repeats: int = REPEATS) -> float:
    """Median of *repeats* calls of *fn*, which returns measured seconds."""
    return statistics.median(fn() for _ in range(repeats))


def as_batches(steps) -> List[Batch]:
    """The steps as ``(stream_id, elements)`` micro-batches of up to
    ``BATCH`` elements: per-stream order kept, element-ingest schedules
    regrouped per stream (a coarser but valid interleaving)."""
    batches: List[Batch] = []
    pending: Dict[int, list] = {}
    for step in steps:
        for stream_id, elements in step:
            if len(elements) == BATCH and stream_id not in pending:
                batches.append((stream_id, elements))
                continue
            buffer = pending.setdefault(stream_id, [])
            buffer.extend(elements)
            while len(buffer) >= BATCH:
                batches.append((stream_id, buffer[:BATCH]))
                del buffer[:BATCH]
    for stream_id, buffer in pending.items():
        if buffer:
            batches.append((stream_id, buffer))
    return batches


def prefix(batches: List[Batch], elements: int) -> List[Batch]:
    out: List[Batch] = []
    total = 0
    for batch in batches:
        if total >= elements:
            break
        out.append(batch)
        total += len(batch[1])
    return out


def count(batches: List[Batch]) -> int:
    return sum(len(elements) for _, elements in batches)


def fresh_merge(workload: Workload):
    merge = VARIANTS[workload.variant](**workload.merge_kwargs())
    for stream_id in range(REPLICAS):
        merge.attach(stream_id)
    return merge


class Attempts:
    """Bounded retries for passes through the process backend.

    ``ShmRing.get`` can read a half-written tail counter and hand the
    reader a frame of garbage (README.md, "Findings"); a pass then dies
    with whatever exception the garbage provokes.  End-to-end reps count
    that as a failed rep.  The traced run only *describes* layers, so it
    retries such a pass and reports how often it had to
    (``driver.cell_retries``).
    """

    def __init__(self, tries: int = 3):
        self.tries = tries
        self.retries = 0

    def __call__(self, fn, *args, **kwargs):
        for attempt in range(self.tries):
            try:
                return fn(*args, **kwargs)
            except Exception:
                if attempt == self.tries - 1:
                    raise
                self.retries += 1


# ----------------------------------------------------------------------
# Traced passes
# ----------------------------------------------------------------------

_SPAN_OF = {Insert: "lmerge.insert", Adjust: "lmerge.adjust", Stable: "lmerge.stable"}


def kind_runs(steps) -> List[Tuple[str, int, list]]:
    """Every step split into kind-homogeneous runs (what ``process_batch``
    would dispatch one handler call for), built before the clock starts."""
    runs = []
    for step in steps:
        for stream_id, elements in step:
            i, n = 0, len(elements)
            while i < n:
                cls = elements[i].__class__
                j = i + 1
                while j < n and elements[j].__class__ is cls:
                    j += 1
                runs.append((_SPAN_OF[cls], stream_id, elements[i:j]))
                i = j
    return runs


def traced_inprocess_pass(workload: Workload, steps, recorder: Recorder):
    """The in-process merge with a span per call into ``lmerge``."""
    merge = fresh_merge(workload)
    if workload.ingest == "element":
        calls = [
            (_SPAN_OF[element.__class__], stream_id, element)
            for step in steps
            for stream_id, elements in step
            for element in elements
        ]
        feed = merge.process
    else:
        calls = kind_runs(steps)

        def feed(run, stream_id):
            merge.process_batch(run, stream_id, coalesce_stables=True)

    begin, end = recorder.begin, recorder.end
    root = begin("driver.pass")
    for name, stream_id, payload in calls:
        span = begin(name)
        feed(payload, stream_id)
        end(span)
    end(root)
    return merge


def untraced_inprocess_pass(workload: Workload, steps):
    """The same pass without spans, stopping at the midpoint to time
    ``snapshot_state`` (outside the pass's own clock)."""
    feed = rep_module.feed_batch if workload.ingest == "batch" else rep_module.feed_each
    merge = fresh_merge(workload)
    half = len(steps) // 2
    started = perf_counter()
    rep_module.replay(merge, steps[:half], feed)
    wall = perf_counter() - started
    started = perf_counter()
    snapshot = merge.snapshot_state()
    snapshot_s = perf_counter() - started
    snapshot_bytes = len(pickle.dumps(snapshot, pickle.HIGHEST_PROTOCOL))
    del snapshot
    started = perf_counter()
    rep_module.replay(merge, steps[half:], feed)
    wall += perf_counter() - started
    return merge, wall, snapshot_s, snapshot_bytes


def _direct(_name, fn, *args):
    return fn(*args)


def handbuilt_sharded_pass(workload: Workload, batches: List[Batch], rep=None):
    """The sharded driver loop rebuilt from public parts; with a *rep* id
    every call into a layer is recorded as a span under one root."""
    recorder = Recorder(rep=rep) if rep is not None else None
    call = recorder.call if recorder is not None else _direct
    cls = VARIANTS[workload.variant]
    runtime = ParallelRuntime(
        merge_factory(cls, **workload.merge_kwargs()),
        SHARDS,
        backend="process",
        coalesce_stables=True,
    )
    union = ShardUnion(SHARDS)
    sink = CollectorSink()
    union.subscribe(sink)
    depths: List[int] = []
    shipped: List[ColumnBatch] = []
    cpu_started = process_time()
    started = perf_counter()
    root = recorder.begin("driver.pass") if recorder is not None else None
    call("parallel.start", runtime.start)
    try:
        for stream_id in range(REPLICAS):
            runtime.broadcast_attach(stream_id)
        for stream_id, elements in batches:
            batch = call("columnar.from_elements", ColumnBatch.from_elements, list(elements))
            buckets = call("exchange.partition", partition_columns, batch, SHARDS, identity_key)
            for shard_id, bucket in enumerate(buckets):
                if bucket:
                    call("parallel.submit", runtime.submit, shard_id, stream_id, bucket)
                    shipped.append(bucket)
            for shard_id, out in call("parallel.poll", runtime.poll):
                call("exchange.union", union.receive_columns, out, shard_id)
                shipped.append(out)
            depths.append(max(depth or 0 for depth in runtime.queue_depths()))
        call("parallel.close", runtime.close)
        for shard_id, out in call("parallel.poll", runtime.poll):
            call("exchange.union", union.receive_columns, out, shard_id)
            shipped.append(out)
    except BaseException:
        runtime.__exit__(*sys.exc_info())  # tear the workers down
        raise
    if recorder is not None:
        recorder.end(root)
    wall = perf_counter() - started
    cpu = process_time() - cpu_started
    return {
        "wall": wall,
        "driver_busy_share": cpu / wall,
        "queue_depth_p50": statistics.median(depths),
        "batches": len(batches),
        "bytes_moved": sum(batch.encoded_size()[0] for batch in shipped),
        "output": sink.stream,
        "spans": recorder.closed() if recorder is not None else [],
    }


def sharded_pass(workload: Workload, batches: List[Batch], **options) -> float:
    """One pass of *batches* through ``shard(variant, 2, ...)``; seconds,
    drain included."""
    plan = shard(
        VARIANTS[workload.variant],
        SHARDS,
        coalesce_stables=True,
        **options,
        **workload.merge_kwargs(),
    )
    try:
        for stream_id in range(REPLICAS):
            plan.attach(stream_id)
        started = perf_counter()
        for stream_id, elements in batches:
            plan.process_batch(elements, stream_id)
        plan.close()
        return perf_counter() - started
    except Exception:
        plan.runtime.__exit__(*sys.exc_info())  # tear the workers down
        raise


# ----------------------------------------------------------------------
# Replay cells
# ----------------------------------------------------------------------


def structures_cells(workload: Workload, batches: List[Batch]) -> Dict[str, float]:
    """Replay the key sequence into bare structures: one insert /
    ``find_or_add`` per delivered insert, one bulk walk per ``stable()``
    that retires what a merge would (events ended before the stable)."""
    ops: List[Tuple[bool, object]] = []  # (is_stable, run of inserts | t)
    run: List[Insert] = []
    for _, elements in batches:
        for element in elements:
            cls = element.__class__
            if cls is Insert:
                run.append(element)
            elif cls is Stable:
                if run:
                    ops.append((False, run))
                    run = []
                ops.append((True, element.vc))
    if run:
        ops.append((False, run))
    inserts = sum(len(o) for is_stable, o in ops if not is_stable) or 1
    stables = sum(1 for is_stable, _ in ops if is_stable) or 1

    def rbtree_pass() -> Tuple[float, float, float]:
        tree = RedBlackTree()
        insert_s = lookup_s = delete_s = 0.0
        for is_stable, op in ops:
            if is_stable:
                started = perf_counter()
                tree.delete_below((op,), keep=lambda _key, ve: ve >= op)
                delete_s += perf_counter() - started
                continue
            keys = [((e.vs, PayloadKey(e.payload)), e.ve) for e in op]
            started = perf_counter()
            for key, ve in keys:
                tree.insert(key, ve)
            mid = perf_counter()
            for key, _ in keys:
                tree.get(key)
            lookup_s += perf_counter() - mid
            insert_s += mid - started
        tree.clear()
        return insert_s, lookup_s, delete_s

    def index_pass(index, add, alive) -> Tuple[float, float, int]:
        insert_s = prune_s = 0.0
        peak = 0
        for is_stable, op in ops:
            started = perf_counter()
            if is_stable:
                index.prune_below(op, keep=lambda node: alive(node, op))
                prune_s += perf_counter() - started
                peak = max(peak, index.memory_bytes())
            else:
                for element in op:
                    add(index, element)
                insert_s += perf_counter() - started
        index.prune_below(float("inf"))
        return insert_s, prune_s, peak

    def in2t_pass():
        return index_pass(
            In2T(),
            lambda index, e: index.find_or_add(e),
            lambda node, t: node.event.ve >= t,
        )

    def in3t_pass():
        return index_pass(
            In3T(),
            lambda index, e: index.find_or_add(e).increment(0, e.ve),
            lambda node, t: node.max_ve(0) >= t,
        )

    rb = [rbtree_pass() for _ in range(REPEATS)]
    i2 = [in2t_pass() for _ in range(REPEATS)]
    i3 = [in3t_pass() for _ in range(REPEATS)]
    own = i3 if workload.variant == "r4" else i2
    med = statistics.median
    return {
        "structures.rbtree_insert_ns": med(r[0] for r in rb) / inserts * 1e9,
        "structures.rbtree_lookup_ns": med(r[1] for r in rb) / inserts * 1e9,
        "structures.rbtree_delete_below_ns": med(r[2] for r in rb) / stables * 1e9,
        "structures.in2t_find_or_add_ns": med(r[0] for r in i2) / inserts * 1e9,
        "structures.in3t_find_or_add_ns": med(r[0] for r in i3) / inserts * 1e9,
        "structures.prune_below_ns": med(r[1] for r in own) / stables * 1e9,
        "structures.index_bytes_peak": float(max(r[2] for r in own)),
    }


def ingest_cells(workload: Workload, batches: List[Batch]) -> Dict[str, float]:
    """The same elements through ``process``, ``process_batch`` and
    ``process_columns``; dispatch = what one ``process_batch`` call costs
    beyond its elements: (N batches of 1 - the same N in batches of
    ``BATCH``) / N."""
    n = count(batches)
    wire = [
        (stream_id, ColumnBatch.from_elements(list(elements)).encode())
        for stream_id, elements in batches
    ]
    def per_element() -> float:
        merge = fresh_merge(workload)
        process = merge.process
        started = perf_counter()
        for stream_id, elements in batches:
            for element in elements:
                process(element, stream_id)
        return perf_counter() - started

    def batched() -> float:
        merge = fresh_merge(workload)
        started = perf_counter()
        for stream_id, elements in batches:
            merge.process_batch(elements, stream_id, coalesce_stables=True)
        return perf_counter() - started

    def columns() -> float:
        merge = fresh_merge(workload)
        decoded = [(sid, ColumnBatch.decode(blob)) for sid, blob in wire]
        started = perf_counter()
        for stream_id, batch in decoded:
            merge.process_columns(batch, stream_id, coalesce_stables=True)
        return perf_counter() - started

    def batches_of_one() -> float:
        merge = fresh_merge(workload)
        singles = [([e], sid) for sid, elements in batches for e in elements]
        started = perf_counter()
        for one, stream_id in singles:
            merge.process_batch(one, stream_id, coalesce_stables=True)
        return perf_counter() - started

    batched_s = median_seconds(batched)
    return {
        "lmerge.per_element_ns": median_seconds(per_element) / n * 1e9,
        "lmerge.batched_ns": batched_s / n * 1e9,
        "lmerge.columns_ns": median_seconds(columns) / n * 1e9,
        "lmerge.batch_dispatch_ns": (median_seconds(batches_of_one) - batched_s) / n * 1e9,
    }


def columnar_cells(batches: List[Batch]) -> Dict[str, float]:
    n = count(batches)
    lists = [list(elements) for _, elements in batches]
    blobs = [ColumnBatch.from_elements(elements).encode() for elements in lists]

    def from_elements() -> float:
        started = perf_counter()
        for elements in lists:
            ColumnBatch.from_elements(elements)
        return perf_counter() - started

    def encode() -> float:
        built = [ColumnBatch.from_elements(elements) for elements in lists]
        started = perf_counter()
        for batch in built:
            batch.encode()
        return perf_counter() - started

    def decode() -> float:
        started = perf_counter()
        for blob in blobs:
            ColumnBatch.decode(blob).payloads  # payloads as the worker reads them
        return perf_counter() - started

    def pickled() -> float:
        started = perf_counter()
        for elements in lists:
            pickle.loads(pickle.dumps(elements, pickle.HIGHEST_PROTOCOL))
        return perf_counter() - started

    return {
        "columnar.from_elements_ns": median_seconds(from_elements) / n * 1e9,
        "columnar.encode_ns": median_seconds(encode) / n * 1e9,
        "columnar.decode_ns": median_seconds(decode) / n * 1e9,
        "columnar.bytes_per_el": sum(len(blob) for blob in blobs) / n,
        "columnar.pickle_ns": median_seconds(pickled) / n * 1e9,
    }


def _echo(inbound: ShmRing, outbound: ShmRing) -> None:
    """Wake-up probe child: parked on *inbound*, echoes each frame."""
    while True:
        frame = inbound.get()
        if frame is None or frame[0] == shm_rings.CTRL:
            return
        outbound.put(shm_rings.OUT, frame[1])


def shm_cells(batches: List[Batch]) -> Dict[str, float]:
    blobs = [
        ColumnBatch.from_elements(list(elements)).encode() for _, elements in batches
    ]

    def put_get() -> Tuple[float, float]:
        ring = ShmRing(1 << 20)
        put_s = get_s = 0.0
        try:
            for blob in blobs:
                started = perf_counter()
                ring.put(shm_rings.BATCH, blob, timeout=1.0)
                mid = perf_counter()
                ring.get(timeout=1.0)
                get_s += perf_counter() - mid
                put_s += mid - started
        finally:
            ring.destroy()
        return put_s, get_s

    pairs = [put_get() for _ in range(REPEATS)]

    # Wake-up: the child parks on an empty ring (it reaches the 2 ms nap
    # cap while the parent sleeps), then one small frame makes a round trip.
    there, back = ShmRing(1 << 16), ShmRing(1 << 16)
    child = multiprocessing.get_context("fork").Process(
        target=_echo, args=(there, back), daemon=True
    )
    child.start()
    trips = []
    try:
        for _ in range(WAKEUP_TRIPS):
            time.sleep(0.006)
            started = perf_counter()
            there.put(shm_rings.BATCH, b"x", timeout=1.0)
            if back.get(timeout=1.0) is None:
                raise RuntimeError("ring wake-up probe: echo timed out")
            trips.append((perf_counter() - started) / 2)
        there.put(shm_rings.CTRL, b"", timeout=1.0)
        child.join(timeout=5)
    finally:
        if child.is_alive():
            child.terminate()
            child.join(timeout=5)
        there.destroy()
        back.destroy()
    wake_p50, wake_p95, _ = summarize(trips)
    frames = len(blobs)
    return {
        "shm.put_ns": statistics.median(p for p, _ in pairs) / frames * 1e9,
        "shm.get_ns": statistics.median(g for _, g in pairs) / frames * 1e9,
        "shm.wakeup_p50_us": wake_p50 * 1e6,
        "shm.wakeup_p95_us": wake_p95 * 1e6,
    }


def exchange_cells(workload: Workload, batches: List[Batch]) -> Dict[str, float]:
    n = count(batches)
    lists = [list(elements) for _, elements in batches]

    def columns() -> float:
        built = [ColumnBatch.from_elements(elements) for elements in lists]
        started = perf_counter()
        for batch in built:
            partition_columns(batch, SHARDS, identity_key)
        return perf_counter() - started

    def objects() -> float:
        started = perf_counter()
        for elements in lists:
            partition_batch(elements, SHARDS, identity_key)
        return perf_counter() - started

    # Record what the shards emit (serial backend), in the wire form the
    # shm exchange hands the union.
    data = [0] * SHARDS
    recorded: List[Tuple[int, bytes]] = []
    runtime = ParallelRuntime(
        merge_factory(VARIANTS[workload.variant], **workload.merge_kwargs()),
        SHARDS,
        backend="serial",
        coalesce_stables=True,
    )
    with runtime:
        for stream_id in range(REPLICAS):
            runtime.broadcast_attach(stream_id)
        for stream_id, elements in batches:
            batch = ColumnBatch.from_elements(list(elements))
            for shard_id, bucket in enumerate(
                partition_columns(batch, SHARDS, identity_key)
            ):
                if bucket:
                    inserts, adjusts, _ = bucket.counts()
                    data[shard_id] += inserts + adjusts
                    runtime.submit(shard_id, stream_id, bucket)
            for shard_id, out in runtime.poll():
                recorded.append((shard_id, ColumnBatch.from_elements(out).encode()))
    union_elements = sum(
        ColumnBatch.decode(blob).n for _, blob in recorded
    ) or 1

    def union() -> float:
        merger = ShardUnion(SHARDS)
        merger.subscribe(CollectorSink())
        decoded = [(shard_id, ColumnBatch.decode(blob)) for shard_id, blob in recorded]
        started = perf_counter()
        for shard_id, batch in decoded:
            merger.receive_columns(batch, shard_id)
        return perf_counter() - started

    return {
        "exchange.partition_ns": median_seconds(columns) / n * 1e9,
        "exchange.partition_obj_ns": median_seconds(objects) / n * 1e9,
        "exchange.union_ns": median_seconds(union) / union_elements * 1e9,
        "exchange.shard_skew": max(data) / (sum(data) / SHARDS) if sum(data) else 1.0,
    }


def parallel_path_cells(
    workload: Workload, batches: List[Batch], scratch: str, attempt: Attempts
):
    """One short pass over each alternative backend x envelope path, and
    the supervised worker loop against the unsupervised one."""
    n = count(batches)
    cells = {
        "parallel.thread2_object_eps": {"backend": "thread", "envelope": "object"},
        "parallel.thread2_columnar_eps": {"backend": "thread", "envelope": "columnar"},
        "parallel.process2_object_eps": {"backend": "process", "envelope": "object"},
        "parallel.serial2_columnar_eps": {"backend": "serial", "envelope": "columnar"},
    }
    out = {
        name: n / attempt(sharded_pass, workload, batches, **options)
        for name, options in cells.items()
    }
    plain = n / attempt(sharded_pass, workload, batches, backend="process")
    durable = os.path.join(scratch, f"durable-{os.getpid()}")
    os.makedirs(durable, exist_ok=True)
    try:
        supervised = n / attempt(
            sharded_pass,
            workload,
            batches,
            backend="process",
            supervised=True,
            durable_dir=durable,
        )
    finally:
        shutil.rmtree(durable, ignore_errors=True)
    out["resilience.supervised_proc2_eps"] = supervised
    out["resilience.supervision_overhead_pct"] = (plain / supervised - 1.0) * 100.0
    return out


def obs_cells(workload: Workload, batches: List[Batch]) -> Dict[str, float]:
    """The batched pass plain, with a ``RingTracer`` installed, and with an
    ``LMergeObserver`` sampled per batch."""

    def run(kind: str) -> float:
        merge = fresh_merge(workload)
        observer = None
        if kind == "tracer":
            merge.set_tracer(RingTracer())
        elif kind == "observer":
            observer = LMergeObserver(merge, MetricRegistry())
        started = perf_counter()
        for stream_id, elements in batches:
            merge.process_batch(elements, stream_id, coalesce_stables=True)
            if observer is not None:
                observer.sample()
        return perf_counter() - started

    times: Dict[str, List[float]] = {"plain": [], "tracer": [], "observer": []}
    for _ in range(REPEATS):  # interleaved so host drift hits all three
        for kind in times:
            times[kind].append(run(kind))
    plain = statistics.median(times["plain"])
    return {
        "obs.ringtracer_overhead_pct": (statistics.median(times["tracer"]) / plain - 1) * 100,
        "obs.observer_overhead_pct": (statistics.median(times["observer"]) / plain - 1) * 100,
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------


def inprocess_trace(workload: Workload, inputs: dict):
    """The in-process merge untraced, then with a span per ``lmerge``
    call; returns its metrics, spans, both wall times and why an output
    failed the oracle ('' if none did)."""
    steps = inputs["steps"]
    feed = rep_module.feed_batch if workload.ingest == "batch" else rep_module.feed_each
    rep_module.replay(fresh_merge(workload), steps[: rep_module.WARMUP_STEPS], feed)
    merge, untraced_wall, snapshot_s, snapshot_bytes = untraced_inprocess_pass(
        workload, steps
    )
    reason = rep_module.check_output(merge.output, inputs)
    recorder = Recorder(rep=0)
    traced = traced_inprocess_pass(workload, steps, recorder)
    reason = reason or rep_module.check_output(traced.output, inputs)
    spans = recorder.closed()
    own = self_times(spans)
    stats = traced.stats
    metrics: Dict[str, float] = {
        "lmerge.snapshot_s": snapshot_s,
        "lmerge.snapshot_bytes": float(snapshot_bytes),
        "lmerge.duplicate_hit_ratio": (
            1.0 - stats.inserts_out / stats.inserts_in if stats.inserts_in else 0.0
        ),
    }
    for kind in ("insert", "adjust", "stable"):
        seconds = own.get(f"lmerge.{kind}", 0.0)
        handled = getattr(stats, f"{kind}s_in")
        metrics[f"lmerge.{kind}_s"] = seconds
        metrics[f"lmerge.{kind}_ns"] = seconds / handled * 1e9 if handled else 0.0
        metrics[f"lmerge.{kind}s_in"] = float(handled)
        metrics[f"lmerge.{kind}s_out"] = float(getattr(stats, f"{kind}s_out"))
    return metrics, spans, untraced_wall, reason


def sharded_trace(workload: Workload, inputs: dict, batches: List[Batch], attempt):
    """``ShardedLMerge``, the hand-built loop, and the hand-built loop
    with spans — two rounds each, the fastest of each compared (process
    passes on a shared host spread +-15 %)."""
    attempt(sharded_pass, workload, batches[: rep_module.WARMUP_STEPS], backend="process")
    plan_walls, plain_walls, traced_loops = [], [], []
    for round_id in (1, 2):
        plan_walls.append(attempt(sharded_pass, workload, batches, backend="process"))
        plain_walls.append(attempt(handbuilt_sharded_pass, workload, batches)["wall"])
        traced_loops.append(
            attempt(handbuilt_sharded_pass, workload, batches, rep=round_id)
        )
    loop = min(traced_loops, key=lambda candidate: candidate["wall"])
    totals = self_times(loop["spans"])
    metrics = {
        f"parallel.{name}_s": totals.get(f"parallel.{name}", 0.0)
        for name in ("start", "submit", "poll", "close")
    }
    for name in ("driver_busy_share", "queue_depth_p50", "batches", "bytes_moved"):
        metrics[f"parallel.{name}"] = float(loop[name])
    metrics["driver.handbuilt_delta_pct"] = (
        min(plan_walls) / min(plain_walls) - 1.0
    ) * 100.0
    overhead_pct = (loop["wall"] / min(plain_walls) - 1.0) * 100.0
    reason = ""
    if workload.backend is not None:  # the full input: the output is checkable
        reason = rep_module.check_output(loop["output"], inputs)
    return metrics, loop["spans"], overhead_pct, reason


def run_traced(workload: Workload, inputs: dict, args) -> dict:
    gc.freeze()  # the pre-built input lists are not the program's garbage
    batches = as_batches(inputs["steps"])
    cell_batches = prefix(batches, CELL_ELEMENTS)
    short_batches = prefix(batches, SHORT_CELL_ELEMENTS)
    sharded = workload.backend is not None
    attempt = Attempts()
    failures: List[str] = []

    metrics, inproc_spans, untraced_wall, reason = inprocess_trace(workload, inputs)
    inproc_wall = root_wall(inproc_spans)
    metrics["driver.trace_overhead_pct"] = (inproc_wall / untraced_wall - 1.0) * 100.0

    loop_spans: list = []
    try:
        loop_metrics, loop_spans, overhead_pct, loop_reason = sharded_trace(
            workload, inputs, batches if sharded else cell_batches, attempt
        )
        metrics.update(loop_metrics)
        reason = reason or loop_reason
        if sharded:
            metrics["driver.trace_overhead_pct"] = overhead_pct
    except Exception:
        failures.append("sharded loop: " + traceback.format_exc(limit=3))

    # The workload's own traced path: where did its wall time go?
    own_spans = loop_spans if sharded else inproc_spans
    own_wall = root_wall(own_spans)
    own = self_times(own_spans)
    metrics["lmerge.self_time_share"] = (
        sum(own.get(name, 0.0) for name in _SPAN_OF.values()) / own_wall
        if own_wall
        else 0.0
    )

    scratch = os.path.dirname(args.out)
    cells = (
        ("structures", lambda: structures_cells(workload, cell_batches)),
        ("ingest", lambda: ingest_cells(workload, short_batches)),
        ("columnar", lambda: columnar_cells(cell_batches)),
        ("shm", lambda: shm_cells(cell_batches)),
        ("exchange", lambda: exchange_cells(workload, cell_batches)),
        (
            "parallel paths",
            lambda: parallel_path_cells(workload, cell_batches, scratch, attempt),
        ),
        ("obs", lambda: obs_cells(workload, short_batches)),
    )
    cell_seconds = {}
    for label, cell in cells:
        started = perf_counter()
        try:
            metrics.update(cell())
        except Exception:
            failures.append(f"{label}: " + traceback.format_exc(limit=3))
        cell_seconds[label] = perf_counter() - started
    metrics["driver.cell_retries"] = float(attempt.retries)

    spans = inproc_spans + loop_spans
    trace_path = os.path.join(args.trace_dir, f"trace-{workload.name}.json")
    dump_spans(
        trace_path,
        spans,
        {
            "workload": workload.name,
            "seed": inputs["seed"],
            "sha256": inputs["sha256"],
            "span_counts": span_counts(spans),
        },
    )
    return {
        "ok": not reason and not failures,
        "mismatch": bool(reason),
        "reason": reason or "; ".join(f.splitlines()[0] for f in failures),
        "failures": failures,
        "metrics": metrics,
        "checks": {
            "self_times_sum_to_wall": own_wall > 0
            and abs(sum(own.values()) - own_wall) / own_wall <= 0.05,
        },
        "trace_file": trace_path,
        "traced_wall_s": own_wall,
        "cell_seconds": cell_seconds,
    }
