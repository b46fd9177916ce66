"""Tier-1 smoke test: the disabled-observability budget.

The tracing hook points guard all their work behind ``tracer.enabled``
(one attribute load + branch per *call*).  This test times the shipped
``process_batch`` (NullTracer guard in place) against a local replica of
the pre-instrumentation inner loop — identical run-grouping and dispatch,
no guard — and asserts the shipped path stays within the 5% budget.

The distributed-telemetry arm applies the same discipline to the shm
exchange: the shipped ``_shm_shard_loop`` (telemetry branches compiled
in, disabled by ``telemetry_interval=0``) is timed against a replica of
the pre-telemetry worker loop, end to end through real process workers;
and a TELEM-enabled run must leave the merged output element-identical.

Timing assertions are meaningless on a loaded single-core host (the noise
floor exceeds the budget), so the perf assertions are skipped there —
matching the repo's precedent for core-gated perf claims.  The
correctness halves (replica output identity, TELEM-on equivalence) run
everywhere.
"""

import multiprocessing
import pickle
import sys
import time
import traceback

import pytest

from repro.engine import shm as shm_rings
from repro.engine import parallel
from repro.engine.columnar import ColumnBatch
from repro.engine.shm import RingClosedError
from repro.engine.parallel import available_cores
from repro.lmerge.r3 import LMergeR3
from repro.lmerge.base import interleave_batches
from repro.lmerge.shard import shard
from repro.obs.registry import MetricRegistry
from repro.obs.trace import NULL_TRACER
from repro.temporal.elements import Stable

from conftest import divergent_inputs, small_stream

BUDGET = 0.95  # shipped throughput must stay >= 95% of the replica's
REPS = 5


def untraced_process_batch(merge, elements, stream_id):
    """The pre-instrumentation inner loop: run-grouping + type-keyed
    dispatch, no tracer guard.  Must mirror LMergeBase.process_batch."""
    state = merge._inputs[stream_id]
    dispatch = merge._batch_dispatch
    i = 0
    n = len(elements)
    while i < n:
        cls = elements[i].__class__
        j = i + 1
        while j < n and elements[j].__class__ is cls:
            j += 1
        dispatch[cls](elements[i : j], stream_id, state, False)
        i = j


def _chunks(streams, batch_size=64):
    return list(interleave_batches(streams, "round_robin", 0, batch_size))


def _run(streams, chunks, use_replica):
    merge = LMergeR3()
    for stream_id in range(len(streams)):
        merge.attach(stream_id)
    start = time.perf_counter()
    if use_replica:
        for chunk, stream_id in chunks:
            untraced_process_batch(merge, chunk, stream_id)
    else:
        for chunk, stream_id in chunks:
            merge.process_batch(chunk, stream_id)
    return time.perf_counter() - start, merge


def test_replica_matches_shipped_output():
    """The baseline loop used for timing is semantically the shipped
    path — otherwise the overhead comparison measures nothing."""
    streams = divergent_inputs(small_stream(count=300, blob=2), n=2)
    chunks = _chunks(streams)
    _, shipped = _run(streams, chunks, use_replica=False)
    _, replica = _run(streams, chunks, use_replica=True)
    assert list(shipped.output) == list(replica.output)
    assert shipped.stats.inserts_out == replica.stats.inserts_out


@pytest.mark.timing
@pytest.mark.skipif(
    available_cores() < 2,
    reason="timing budget needs an unloaded core; host has <2",
)
def test_nulltracer_overhead_within_budget():
    streams = divergent_inputs(small_stream(count=2000, blob=2), n=2)
    chunks = _chunks(streams)
    merge = LMergeR3()
    assert merge.tracer is NULL_TRACER  # the default must be the null tracer

    best_shipped = min(
        _run(streams, chunks, use_replica=False)[0] for _ in range(REPS)
    )
    best_replica = min(
        _run(streams, chunks, use_replica=True)[0] for _ in range(REPS)
    )
    slowdown = best_shipped / best_replica
    assert slowdown <= 1 / BUDGET, (
        f"disabled tracing costs {slowdown - 1:.1%} on the hot path "
        f"(budget 5%): shipped {best_shipped:.4f}s vs "
        f"replica {best_replica:.4f}s"
    )


# ---------------------------------------------------------------------------
# Distributed-telemetry arm: the shm-exchange worker loop
# ---------------------------------------------------------------------------


def legacy_shm_shard_loop(
    shard_id,
    factory,
    in_ring,
    out_ring,
    coalesce_stables,
    telemetry_interval=0.0,  # accepted (spawn passes it), never read
):
    """The pre-telemetry shm worker loop (PR 6 shape): no emitter, no
    observer, no trace-id lineage.  Must mirror what _shm_shard_loop
    does when telemetry is disabled, minus the disabled branches."""
    try:
        in_ring.child_deregister()
        out_ring.child_deregister()
        parent = multiprocessing.parent_process()
        if parent is not None:
            in_ring.set_liveness(parent.is_alive)
            out_ring.set_liveness(parent.is_alive)
        buffer = []
        merge = factory(buffer.append)
        while True:
            frame = in_ring.get()
            kind, payload = frame
            if kind == shm_rings.BATCH:
                sid_len = int.from_bytes(payload[:2], "little")
                stream_id = pickle.loads(payload[2 : 2 + sid_len])
                batch = ColumnBatch.decode(memoryview(payload)[2 + sid_len :])
                merge.process_columns(
                    batch, stream_id, coalesce_stables=coalesce_stables
                )
                if buffer:
                    out = ColumnBatch.from_elements(buffer[:])
                    buffer.clear()
                    size, prebuilt = out.encoded_size()
                    out_ring.put_frame(
                        shm_rings.OUT,
                        size,
                        lambda view: out.encode_into(view, prebuilt),
                    )
            elif kind == shm_rings.CTRL:
                message = pickle.loads(payload)
                if message is None:
                    out_ring.put_pickle(shm_rings.DONE, merge.stats)
                    return
                if message[0] == "attach":
                    merge.attach(message[1], message[2])
                elif message[0] == "detach":
                    merge.detach(message[1])
    except RingClosedError:  # pragma: no cover - driver aborted first
        pass
    except BaseException:  # pragma: no cover - surfaced via ERR frame
        details = traceback.format_exc()
        try:
            out_ring.put_pickle(shm_rings.ERR, details, timeout=5.0)
        except Exception:
            sys.stderr.write(f"[legacy shm shard {shard_id}] {details}\n")


def _sharded_inputs(count=1200):
    reference = small_stream(count=count, seed=21, disorder=0.3, blob=2)
    return reference, divergent_inputs(reference, n=2)


def _run_sharded(inputs, telemetry_interval=0.0, registry=None):
    plan = shard(
        LMergeR3,
        2,
        backend="process",
        registry=registry,
        telemetry_interval=telemetry_interval,
    )
    start = time.perf_counter()
    output = plan.merge(inputs, schedule="round_robin")
    return time.perf_counter() - start, output


def _data_by_key(elements):
    ordered = {}
    for element in elements:
        if isinstance(element, Stable):
            continue
        ordered.setdefault((element.vs, element.payload), []).append(element)
    return ordered


def test_shm_replica_matches_shipped_output(monkeypatch):
    """The legacy worker loop is semantically the shipped disabled path —
    otherwise the process-backend overhead comparison measures nothing."""
    _, inputs = _sharded_inputs(count=400)
    _, shipped = _run_sharded(inputs)
    monkeypatch.setattr(parallel, "_shm_shard_loop", legacy_shm_shard_loop)
    _, replica = _run_sharded(inputs)
    assert _data_by_key(shipped) == _data_by_key(replica)
    assert shipped.tdb() == replica.tdb()


def test_telemetry_enabled_output_equivalent():
    """TELEM streaming is observation only: an enabled run's merged
    output carries the same per-key element sequences and TDB."""
    reference, inputs = _sharded_inputs(count=400)
    _, disabled = _run_sharded(inputs)
    _, enabled = _run_sharded(
        inputs, telemetry_interval=0.001, registry=MetricRegistry()
    )
    assert _data_by_key(enabled) == _data_by_key(disabled)
    assert enabled.tdb() == disabled.tdb() == reference.tdb()


@pytest.mark.timing
@pytest.mark.skipif(
    available_cores() < 2,
    reason="timing budget needs an unloaded core; host has <2",
)
def test_disabled_telemetry_overhead_within_budget(monkeypatch):
    """The telemetry-disabled sharded path (guards compiled in, interval
    0) must stay within the 5% budget of the pre-telemetry worker loop,
    measured end to end through real process workers."""
    _, inputs = _sharded_inputs()

    best_shipped = min(_run_sharded(inputs)[0] for _ in range(REPS))
    monkeypatch.setattr(parallel, "_shm_shard_loop", legacy_shm_shard_loop)
    best_replica = min(_run_sharded(inputs)[0] for _ in range(REPS))

    slowdown = best_shipped / best_replica
    assert slowdown <= 1 / BUDGET, (
        f"disabled telemetry costs {slowdown - 1:.1%} on the shm exchange "
        f"(budget 5%): shipped {best_shipped:.4f}s vs "
        f"replica {best_replica:.4f}s"
    )
