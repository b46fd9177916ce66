"""Tier-1 smoke test: the disabled-observability budget.

The tracing hook points guard all their work behind ``tracer.enabled``
(one attribute load + branch per *call*).  This test times the shipped
``process_batch`` (NullTracer guard in place) against a local replica of
the pre-instrumentation inner loop — identical run-grouping and dispatch,
no guard — and asserts the shipped path stays within the 5% budget.

The distributed-telemetry arm keeps the correctness half only: a
TELEM-enabled run through real process workers must leave the merged
output element-identical.  What the shm worker costs with telemetry off
is carried by the ``disorder_r3_proc2`` workload of ``BENCHMARK.json``
(``throughput_eps``, judged on every PR), not by a frozen copy of the
worker loop here.

Timing assertions are meaningless on a loaded single-core host (the noise
floor exceeds the budget), so the perf assertion is skipped there —
matching the repo's precedent for core-gated perf claims.  The
correctness halves (replica output identity, TELEM-on equivalence) run
everywhere.
"""

import ast
import inspect
import textwrap
import time
from pathlib import Path

import pytest

from repro.engine.parallel import available_cores
from repro.lmerge.r3 import LMergeR3
from repro.lmerge.base import InputStateError, LMergeBase, interleave_batches
from repro.lmerge.sharded import shard
from repro.obs.registry import MetricRegistry
from repro.obs.trace import NULL_TRACER

from conftest import data_by_key, divergent_inputs, small_stream

BUDGET = 0.95  # shipped throughput must stay >= 95% of the replica's
REPS = 5


def untraced_process_batch(merge, elements, stream_id, *, coalesce_stables=False):
    """``LMergeBase.process_batch`` minus its tracer lines
    (``test_replicas_are_the_shipped_loop_minus_the_tracer`` holds the
    two together)."""
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


def _loop_without_tracer(function):
    """*function*'s parameters and body as an AST dump, minus its
    docstring, its annotations and every statement that names the
    tracer, with ``self`` spelled ``merge``."""

    class Rename(ast.NodeTransformer):
        def visit_Name(self, node):
            if node.id == "self":
                node.id = "merge"
            return node

        def visit_arg(self, node):
            if node.arg == "self":
                node.arg = "merge"
            node.annotation = None
            return node

    body = function.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    kept = [
        statement
        for statement in body
        if not {"tracer", "traced"}
        & {n.id for n in ast.walk(statement) if isinstance(n, ast.Name)}
    ]
    tree = Rename().visit(ast.Module(body=[function.args, *kept], type_ignores=[]))
    return ast.dump(tree)


def _function_def(source, name):
    tree = ast.parse(textwrap.dedent(source))
    return next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


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


@pytest.mark.parametrize(
    "source, name",
    [
        (inspect.getsource(untraced_process_batch), "untraced_process_batch"),
        (
            (Path(__file__).parents[1] / "benchmarks" / "bench_hotpath.py").read_text(),
            "_untraced_process_batch",
        ),
    ],
    ids=["tier1", "bench_hotpath"],
)
def test_replicas_are_the_shipped_loop_minus_the_tracer(source, name):
    """A budget against a stale copy charges the copy's missing work to
    tracing: each replica must be ``process_batch`` with its tracer
    statements deleted and nothing else changed."""
    shipped = _function_def(inspect.getsource(LMergeBase.process_batch), "process_batch")
    replica = _function_def(source, name)
    assert _loop_without_tracer(replica) == _loop_without_tracer(shipped)


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

    best_shipped = best_replica = float("inf")
    for _ in range(REPS):  # interleaved, so host drift hits both arms
        best_shipped = min(best_shipped, _run(streams, chunks, False)[0])
        best_replica = min(best_replica, _run(streams, chunks, True)[0])
    slowdown = best_shipped / best_replica
    assert slowdown <= 1 / BUDGET, (
        f"disabled tracing costs {slowdown - 1:.1%} on the hot path "
        f"(budget 5%): shipped {best_shipped:.4f}s vs "
        f"replica {best_replica:.4f}s"
    )


# ---------------------------------------------------------------------------
# Distributed-telemetry arm: the shm exchange with TELEM streaming on
# ---------------------------------------------------------------------------


def _run_sharded(inputs, telemetry_interval=0.0, registry=None):
    plan = shard(
        LMergeR3,
        2,
        backend="process",
        registry=registry,
        telemetry_interval=telemetry_interval,
    )
    return plan.merge(inputs, schedule="round_robin")


def test_telemetry_enabled_output_equivalent():
    """TELEM streaming is observation only: an enabled run's merged
    output carries the same per-key element sequences and TDB."""
    reference = small_stream(count=400, seed=21, disorder=0.3, blob=2)
    inputs = divergent_inputs(reference, n=2)
    disabled = _run_sharded(inputs)
    enabled = _run_sharded(
        inputs, telemetry_interval=0.001, registry=MetricRegistry()
    )
    assert data_by_key(enabled) == data_by_key(disabled)
    assert enabled.tdb() == disabled.tdb() == reference.tdb()
