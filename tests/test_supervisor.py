"""SupervisedRuntime: crash detection, restart-from-checkpoint, replay,
bounded restarts, and the ring/close satellites.

Process-spawning tests keep workloads small and run the supervisor's
fixed timings; every run still checks the real oracle (TDB equivalence
against a clean serial run).
"""

import multiprocessing
import time
from collections import Counter

import pytest

from repro.engine.parallel import ParallelRuntime, ShardError, merge_factory
from repro.engine.shm import CTRL, PeerDeadError, RingClosedError, ShmRing
from repro.lmerge.base import MergeStats
from repro.lmerge.r3 import LMergeR3
from repro.lmerge.sharded import shard
from repro.obs.registry import MetricRegistry
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import MAX_RESTARTS, SupervisedRuntime
from repro.temporal.elements import Stable

from conftest import divergent_inputs, small_stream


def data_multiset(stream):
    return Counter(e for e in stream if not isinstance(e, Stable))


def run_pair(fault_plan, tmp_path, count=160, registry=None):
    """A clean serial run and a supervised faulty run over one workload."""
    reference = small_stream(count=count, seed=3, disorder=0.2, stable_freq=0.08)
    inputs = divergent_inputs(reference, n=2)
    baseline = shard(LMergeR3, 2, backend="serial")
    baseline_out = baseline.merge(inputs, batch_size=16)
    plan = shard(
        LMergeR3,
        2,
        backend="process",
        supervised=True,
        durable_dir=str(tmp_path),
        fault_plan=fault_plan,
        registry=registry,
    )
    supervised_out = plan.merge(inputs, batch_size=16)
    return reference, baseline_out, supervised_out, plan.runtime


class TestKillRecovery:
    def test_kill_recovers_to_equivalent_output(self, tmp_path):
        faults = FaultPlan.random(11, 2, 8, kills=2)
        reference, baseline_out, out, runtime = run_pair(faults, tmp_path)
        assert out.tdb() == baseline_out.tdb() == reference.tdb()
        assert data_multiset(out) == data_multiset(baseline_out)
        assert sum(runtime.restarts) >= 1
        assert runtime.recoveries
        assert all(r.seconds > 0 for r in runtime.recoveries)

    def test_late_kill_resumes_from_checkpoint_not_scratch(self, tmp_path):
        # Kill well after the first CTI checkpoints have landed: the
        # respawned worker must restore a positive applied_seq and
        # replay only the tail.
        faults = FaultPlan(kills=frozenset({(0, 15)}))
        reference, baseline_out, out, runtime = run_pair(
            faults, tmp_path, count=200
        )
        assert out.tdb() == reference.tdb()
        assert data_multiset(out) == data_multiset(baseline_out)
        (recovery,) = [r for r in runtime.recoveries if r.shard == 0]
        assert recovery.resumed_seq > 0
        assert recovery.replayed_entries >= 1

    def test_replayed_rows_resolve_to_the_callers_objects(self, tmp_path):
        """OUT row references resolve against the journal by seq, so a
        replay after a late kill still hands back submitted objects."""
        reference = small_stream(count=200, seed=3, disorder=0.2, stable_freq=0.08)
        inputs = divergent_inputs(reference, n=2)
        submitted = {id(e) for stream in inputs for e in stream}
        reused = lambda out: {
            id(e) for e in out if not isinstance(e, Stable) and id(e) in submitted
        }
        baseline_out = shard(LMergeR3, 2, backend="serial").merge(
            inputs, batch_size=16
        )
        plan = shard(
            LMergeR3,
            2,
            backend="process",
            supervised=True,
            durable_dir=str(tmp_path),
            fault_plan=FaultPlan(kills=frozenset({(0, 15)})),
        )
        out = plan.merge(inputs, batch_size=16)
        assert [r.shard for r in plan.runtime.recoveries] == [0]
        assert reused(baseline_out)
        assert reused(out) == reused(baseline_out)
        assert out.tdb() == reference.tdb()

    @pytest.mark.parametrize("killed_seq", [6, 9])
    def test_kill_postmortem_ends_at_the_killed_batch(self, tmp_path, killed_seq):
        """The worker flushes its flight recorder after every batch, and
        the flush is at the OS before the fault site fires: the victim's
        dump ends at the very batch it was killed after."""
        faults = FaultPlan(kills=frozenset({(1, killed_seq)}))
        reference, _, out, runtime = run_pair(faults, tmp_path)
        assert out.tdb() == reference.tdb()
        (recovery,) = [r for r in runtime.recoveries if r.shard == 1]
        batches = [e for e in recovery.flight if e["kind"] == "batch"]
        assert batches[-1]["seq"] == killed_seq

    def test_checkpoint_acks_trim_journal(self, tmp_path):
        reference, baseline_out, out, runtime = run_pair(None, tmp_path)
        assert out.tdb() == reference.tdb()
        assert runtime.restarts == [0, 0]
        # The close() flush handshake checkpoints everything, so no
        # journal entries remain untrimmed.
        assert all(
            runtime.journal_depth(s) == 0 for s in range(runtime.num_shards)
        )

    def test_recovery_metrics_recorded(self, tmp_path):
        registry = MetricRegistry()
        faults = FaultPlan(kills=frozenset({(1, 6)}))
        reference, _, out, runtime = run_pair(
            faults, tmp_path, registry=registry
        )
        assert out.tdb() == reference.tdb()
        assert registry.counter("restarts_total", {"shard": 1}).value >= 1
        assert (
            registry.counter("replayed_elements_total", {"shard": 1}).value
            == sum(r.replayed_elements for r in runtime.recoveries)
        )
        assert registry.histogram("recovery_seconds").count >= 1
        assert (
            registry.gauge("state_store_bytes", {"store": "shard-0"}).value
            > 0
        )
        # A supervised plan rides the same exchange as a plain one, so
        # it records the same exchange series.
        for s in range(2):
            for name in (
                "exchange_batches_total",
                "exchange_bytes_total",
                "exchange_encode_seconds_total",
                "exchange_decode_seconds_total",
            ):
                assert registry.counter(name, {"shard": s}).value > 0, name
        assert "exchange_ring_occupancy" in {
            gauge["name"] for gauge in registry.snapshot()["gauge"]
        }


class TestStallDetection:
    def test_stalled_worker_is_detected_and_replaced(self, tmp_path):
        faults = FaultPlan(stalls=frozenset({(0, 5)}))
        reference, baseline_out, out, runtime = run_pair(faults, tmp_path)
        assert out.tdb() == reference.tdb()
        assert data_multiset(out) == data_multiset(baseline_out)
        stall_recoveries = [r for r in runtime.recoveries if r.shard == 0]
        assert stall_recoveries
        assert any(
            "heartbeat" in r.reason for r in stall_recoveries
        )


class TestBoundedRestarts:
    def test_deterministic_failure_surfaces_shard_error(self, tmp_path):
        """A batch for an unattached stream fails identically on every
        replay; after MAX_RESTARTS the supervisor gives up."""
        runtime = SupervisedRuntime(
            merge_factory(LMergeR3), 1, durable_dir=str(tmp_path)
        ).start()
        stream = small_stream(count=30, seed=1, disorder=0.0)
        runtime.submit(0, 99, list(stream)[:8])  # stream 99 never attached
        with pytest.raises(ShardError) as excinfo:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                runtime.poll()
                time.sleep(0.02)
            runtime.close()
        assert "MAX_RESTARTS" in str(excinfo.value)
        assert runtime.restarts == [MAX_RESTARTS]


class TestSequenceGate:
    def test_unsupervised_gap_is_named_in_the_shard_error(self):
        """The ring worker gates on frame numbers for every shm plan; a
        plain plan has nobody to recover it, so a skipped number surfaces
        as a ShardError that says what was expected and what arrived."""
        runtime = ParallelRuntime(
            merge_factory(LMergeR3), 1, backend="process"
        ).start()
        runtime.broadcast_attach(0)  # frame 1
        runtime._next_seq[0] += 1  # frame 2 is never sent
        runtime.submit(0, 0, list(small_stream(count=8, seed=1)))
        with pytest.raises(ShardError) as excinfo:
            runtime.close()
        assert "expected 2" in str(excinfo.value)
        assert "got 3" in str(excinfo.value)


class TestRingLiveness:
    def test_get_raises_when_producer_dead_and_ring_empty(self):
        ring = ShmRing(4096)
        try:
            ring.set_liveness(lambda: False)
            with pytest.raises(PeerDeadError):
                ring.get(timeout=5.0)
        finally:
            ring.liveness = None
            ring.destroy()

    def test_final_frame_served_before_peer_death_surfaces(self):
        ring = ShmRing(4096)
        try:
            ring.put_pickle(CTRL, "published-then-died")
            ring.set_liveness(lambda: False)
            kind, payload = ring.get(timeout=1.0)
            assert kind == CTRL
            with pytest.raises(PeerDeadError):
                ring.get(timeout=5.0)
        finally:
            ring.liveness = None
            ring.destroy()

    def test_put_raises_when_consumer_dead_and_ring_full(self):
        ring = ShmRing(4096)
        try:
            while ring.put(CTRL, bytes(512), timeout=0):
                pass
            ring.set_liveness(lambda: False)
            with pytest.raises(PeerDeadError):
                ring.put(CTRL, bytes(512), timeout=5.0)
        finally:
            ring.liveness = None
            ring.destroy()

    def test_peer_dead_is_a_ring_closed_error(self):
        # Workers catch RingClosedError on driver death; the subclass
        # relationship is what routes PeerDeadError into that exit.
        assert issubclass(PeerDeadError, RingClosedError)


class TestCloseEscalation:
    def test_hung_worker_is_terminated_and_recorded(self):
        runtime = ParallelRuntime(lambda sink: None, 1, backend="serial")
        runtime.close_join_timeout = 0.1
        runtime.registry = MetricRegistry()
        context = multiprocessing.get_context("fork")
        process = context.Process(target=time.sleep, args=(600,), daemon=True)
        process.start()
        runtime._processes = [process]
        stats = [MergeStats()]
        runtime._join_or_escalate(stats)
        assert not process.is_alive()
        assert stats[0].escalations == 1
        assert (
            runtime.registry.counter(
                "shard_close_escalations_total", {"shard": 0}
            ).value
            == 1
        )

    def test_prompt_exit_is_not_an_escalation(self):
        runtime = ParallelRuntime(lambda sink: None, 1, backend="serial")
        context = multiprocessing.get_context("fork")
        process = context.Process(target=int, daemon=True)
        process.start()
        process.join()
        runtime._processes = [process]
        stats = [MergeStats()]
        runtime._join_or_escalate(stats)
        assert stats[0].escalations == 0

    def test_escalations_fold_through_stats_merge(self):
        a = MergeStats(escalations=1)
        b = MergeStats(escalations=2)
        assert (a + b).escalations == 3
        assert MergeStats.from_state(a.to_state()) == a


class TestDriverRestartResume:
    def test_second_runtime_resumes_from_durable_dir(self, tmp_path):
        """Driver-restart seam: a new SupervisedRuntime over the same
        durable_dir picks each shard up from its snapshot instead of an
        empty merge."""
        reference = small_stream(count=120, seed=6, disorder=0.2)
        inputs = divergent_inputs(reference, n=2)
        baseline = shard(LMergeR3, 1, backend="serial")
        baseline_out = baseline.merge(inputs, batch_size=16)

        factory = merge_factory(LMergeR3)
        first = SupervisedRuntime(factory, 1, durable_dir=str(tmp_path)).start()
        first.broadcast_attach(0)
        first.broadcast_attach(1)
        chunks = []
        from repro.lmerge.base import interleave_batches

        feeds = list(interleave_batches(inputs, "round_robin", 0, 16))
        cut = len(feeds) // 2
        collected = []
        for chunk, stream_id in feeds[:cut]:
            first.submit(0, stream_id, chunk)
            collected.extend(b for _, b in first.poll())
        first.close()
        collected.extend(b for _, b in first.poll())

        second = SupervisedRuntime(factory, 1, durable_dir=str(tmp_path)).start()
        for chunk, stream_id in feeds[cut:]:
            second.submit(0, stream_id, chunk)
            collected.extend(b for _, b in second.poll())
        second.close()
        collected.extend(b for _, b in second.poll())

        elements = [e for batch in collected for e in batch]
        assert data_multiset(elements) == data_multiset(baseline_out)
        del chunks
