"""Tests for the HA applications: replication under failures, checkpoint
jumpstart, and query cutover (Section II)."""

import pytest

from repro.ha.checkpoint import checkpoint_of, replay_stream
from repro.ha.switchover import cutover
from repro.ha.replica import FailureEvent, RecoveryMode, ReplicatedDeployment
from repro.lmerge.r3 import LMergeR3
from repro.streams.stream import PhysicalStream
from repro.temporal.elements import Insert, Stable
from repro.temporal.event import Event
from repro.temporal.tdb import TDB
from repro.temporal.time import INFINITY

from conftest import divergent_inputs, small_stream


class TestReplicationNoFailures:
    def test_plain_replication(self):
        reference = small_stream(count=300, seed=61)
        inputs = divergent_inputs(reference, n=3)
        deployment = ReplicatedDeployment(LMergeR3(), inputs)
        output = deployment.run()
        assert output.tdb() == reference.tdb()


class TestFailures:
    def make(self, failures, n=3, seed=62, count=400):
        reference = small_stream(count=count, seed=seed)
        inputs = divergent_inputs(reference, n=n)
        deployment = ReplicatedDeployment(LMergeR3(), inputs, failures)
        return reference, deployment

    def test_permanent_failure_of_one_replica(self):
        reference, deployment = self.make(
            [FailureEvent(replica=1, fail_after=100)]
        )
        output = deployment.run()
        assert output.tdb() == reference.tdb()
        assert deployment.detach_count == 1

    def test_permanent_failure_of_all_but_one(self):
        reference, deployment = self.make(
            [
                FailureEvent(replica=1, fail_after=50),
                FailureEvent(replica=2, fail_after=120),
            ]
        )
        output = deployment.run()
        assert output.tdb() == reference.tdb()

    def test_pause_and_recover(self):
        reference, deployment = self.make(
            [
                FailureEvent(
                    replica=1,
                    fail_after=100,
                    down_for=50,
                    mode=RecoveryMode.PAUSE,
                )
            ]
        )
        output = deployment.run()
        assert output.tdb() == reference.tdb()
        assert deployment.reattach_count == 1

    def test_rewind_recovery_duplicates_history(self):
        """A restarted replica re-delivers elements it already sent; the
        merge absorbs the duplicates."""
        reference, deployment = self.make(
            [
                FailureEvent(
                    replica=1,
                    fail_after=150,
                    down_for=30,
                    mode=RecoveryMode.REWIND,
                    rewind=100,
                )
            ]
        )
        output = deployment.run()
        assert output.tdb() == reference.tdb()

    def test_gap_recovery_with_coverage(self):
        """A replica that lost its backlog is fine as long as the others
        cover the gap."""
        reference, deployment = self.make(
            [
                FailureEvent(
                    replica=1,
                    fail_after=150,
                    down_for=40,
                    mode=RecoveryMode.GAP,
                )
            ]
        )
        output = deployment.run()
        assert output.tdb() == reference.tdb()

    def test_overlapping_failures(self):
        reference, deployment = self.make(
            [
                FailureEvent(replica=0, fail_after=100, down_for=60),
                FailureEvent(replica=1, fail_after=120, down_for=60),
            ]
        )
        output = deployment.run()
        assert output.tdb() == reference.tdb()

    def test_unknown_replica_rejected(self):
        with pytest.raises(ValueError):
            ReplicatedDeployment(
                LMergeR3(),
                [PhysicalStream([Stable(INFINITY)])],
                [FailureEvent(replica=5, fail_after=0)],
            )

    def test_failure_validation(self):
        with pytest.raises(ValueError):
            FailureEvent(replica=0, fail_after=-1)
        with pytest.raises(ValueError):
            FailureEvent(replica=0, fail_after=0, down_for=0)
        with pytest.raises(ValueError):
            FailureEvent(replica=0, fail_after=0, rewind=-1)


class TestCheckpoint:
    def test_checkpoint_keeps_only_relevant_events(self):
        tdb = TDB([Event(1, "old", 5), Event(2, "live", 20), Event(8, "new", 30)])
        tdb.stable_point = 10
        checkpoint = checkpoint_of(tdb, as_of=10)
        payloads = {event.payload for event in checkpoint.events}
        assert payloads == {"live", "new"}

    def test_checkpoint_beyond_stable_rejected(self):
        tdb = TDB([Event(1, "a", 5)])
        tdb.stable_point = 3
        with pytest.raises(ValueError):
            checkpoint_of(tdb, as_of=10)

    def test_replay_stream_is_valid(self):
        tdb = TDB([Event(2, "live", 20)])
        tdb.stable_point = 10
        checkpoint = checkpoint_of(tdb, as_of=10)
        replay = replay_stream(checkpoint, [Insert("tail", 12, 25), Stable(INFINITY)])
        replay.tdb()  # strict

    def test_jumpstart_into_running_merge(self):
        """A fresh replica seeded from a checkpoint joins a live merge and
        can then sustain the output alone."""
        reference = small_stream(count=400, seed=63, stable_freq=0.1)
        merge = LMergeR3()
        merge.attach(0)
        # Drive the primary halfway.
        half = len(reference) // 2
        for element in reference[:half]:
            merge.process(element, 0)
        # Checkpoint the merged output state (as a warm copy would).
        out_tdb = merge.output.tdb()
        as_of = out_tdb.stable_point
        checkpoint = checkpoint_of(out_tdb, as_of=as_of)
        # Build the newcomer's stream: replay + the primary's remaining tail.
        newcomer = replay_stream(checkpoint, reference[half:])
        merge.attach(1, guarantee_from=as_of)
        # The primary dies immediately; the newcomer carries the query.
        merge.detach(0)
        for element in newcomer:
            merge.process(element, 1)
        assert merge.output.tdb() == reference.tdb()

    def test_jumpstart_is_joined_once_stable_passes_guarantee(self):
        reference = small_stream(count=200, seed=64, stable_freq=0.1)
        merge = LMergeR3()
        merge.attach(0)
        for element in reference[: len(reference) // 2]:
            merge.process(element, 0)
        as_of = merge.max_stable
        merge.attach(1, guarantee_from=as_of + 1)
        assert not merge.is_joined(1)
        merge.process(Stable(INFINITY), 0)
        assert merge.is_joined(1)


class TestCutover:
    def test_switch_plans_mid_query(self):
        reference = small_stream(count=400, seed=65, stable_freq=0.1)
        inputs = divergent_inputs(reference, n=2)
        merge = LMergeR3()
        merge.attach("old")
        # Old plan runs the first 40%.
        split = int(len(inputs[0]) * 0.4)
        for element in inputs[0][:split]:
            merge.process(element, "old")
        old_tail = iter(inputs[0][split:])
        # New plan replays from scratch (guarantee: everything).
        old_used, new_used = cutover(
            merge,
            old_id="old",
            old_tail=old_tail,
            new_id="new",
            new_stream=inputs[1],
            guarantee_from=merge.max_stable,
        )
        assert not merge.is_attached("old")
        assert merge.output.tdb() == reference.tdb()
        assert new_used == len(inputs[1])

    def test_cutover_failure_when_new_plan_stalls(self):
        merge = LMergeR3()
        merge.attach("old")
        stalled = PhysicalStream([Insert("x", 1, 5)])  # never punctuates
        with pytest.raises(RuntimeError):
            cutover(
                merge,
                old_id="old",
                old_tail=iter([]),
                new_id="new",
                new_stream=stalled,
                guarantee_from=100,
            )
