"""Supervised shard workers: crash detection, durable checkpoints, and
restart-with-replay for the process-backend merge runtime.

The shm exchange (:mod:`repro.engine.parallel`) already numbers every
frame it sends a shard, has the ring worker gate on that number, and
has every ``OUT`` frame say how many rows the worker emitted before it.
Supervision is the layer that puts those to work — the recovery path the
paper assumes exists around LMerge (Section II — masking physical
failure) — in two halves:

* :class:`_WorkerSupervision`, handed to the ring worker, owns the disk:
  it restores the last durable
  :meth:`~repro.lmerge.base.LMergeBase.snapshot_state` from the shard's
  :class:`~repro.resilience.store.StateStore`, keeps the flight
  recorder, fires the fault sites, and says when to checkpoint —
  preferentially right after the merge's stable frontier (CTI)
  advances, so checkpoints sit at CTI boundaries.  A worker that has
  one also **heartbeats** (``HB`` frames when idle and after every
  batch);
* :class:`SupervisedRuntime`, the driver, retains every numbered frame
  in an in-memory **journal** until the worker acknowledges a durable
  checkpoint covering it, detects death three ways —
  ``process.is_alive()``, :class:`~repro.engine.shm.PeerDeadError` from
  a ring operation, and a stale heartbeat (hang detection) — and
  **recovers**: kill the remnants, rebuild the rings, respawn the worker
  (which restores the last durable snapshot), and replay the journal
  tail.  Restarts back off exponentially and are bounded by
  :data:`MAX_RESTARTS`, after which the failure surfaces as the classic
  :class:`~repro.engine.parallel.ShardError`.

The timings below are module constants, not options: the chaos matrix
(``repro chaos``) is TDB-equivalent at these values for every variant
and fault kind.

Replay is deterministic, so the exchange's **output dedup** makes
recovery exact, not just equivalent: the driver slices off exactly the
rows it has already delivered, and the recovered output is
element-identical to the uninterrupted run's per-shard output.

The sequence gate also subsumes transport faults: a dropped or reordered
frame shows up as a gap (the worker reports it and is recovered), a
duplicated frame is skipped.  The seeded
:class:`~repro.resilience.faults.FaultPlan` drives exactly these paths
in the chaos tests.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from time import monotonic, perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.engine.shm as shm_rings
from repro.engine.parallel import (
    ParallelRuntime,
    ShardError,
    ShardFactory,
)
from repro.engine.shm import RingClosedError
from repro.obs.telemetry import FlightRecorder, make_trace_id
from repro.resilience.faults import KILL_EXIT_CODE, FaultPlan
from repro.resilience.snapshot import load_snapshot, save_snapshot
from repro.resilience.store import StateStore, StateStoreError
from repro.temporal.elements import Element

__all__ = ["SupervisedRuntime", "RecoveryRecord"]

#: Batches a worker applies between checkpoints while its stable
#: frontier stands still (a frontier advance checkpoints at once).
CHECKPOINT_EVERY = 8
#: Seconds an idle worker waits on its input ring before it beats.
HEARTBEAT_INTERVAL = 0.05
#: Seconds of worker silence after which the driver declares a stall.
#: Forty intervals: a loaded host can starve a healthy worker for a
#: while, and a false stall costs a restart plus a replay.
HEARTBEAT_TIMEOUT = 2.0
#: Recoveries one shard may need before its failure surfaces as a
#: :class:`~repro.engine.parallel.ShardError`.
MAX_RESTARTS = 5
#: The first restart's delay; it doubles per attempt up to the cap.
RESTART_BACKOFF = 0.05
RESTART_BACKOFF_CAP = 2.0
#: Seconds a (re)spawned worker has to restore its snapshot and announce
#: itself.
RESUME_TIMEOUT = 30.0
#: Seconds ``close()`` waits for a flush ack or a DONE frame before it
#: recovers the shard and retries.
HANDSHAKE_TIMEOUT = 10.0
#: Batches the always-on flight recorder keeps per worker.
FLIGHT_CAPACITY = 64


@dataclass
class RecoveryRecord:
    """One completed shard recovery (``SupervisedRuntime.recoveries``)."""

    shard: int
    attempt: int
    reason: str
    resumed_seq: int
    replayed_entries: int
    replayed_elements: int
    seconds: float
    #: The victim's last flight-recorder flush (its final N batches as
    #: span events, trace ids stitching into the driver-side journal).
    flight: List[dict] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "attempt": self.attempt,
            "reason": self.reason.strip().splitlines()[-1] if self.reason else "",
            "resumed_seq": self.resumed_seq,
            "replayed_entries": self.replayed_entries,
            "replayed_elements": self.replayed_elements,
            "seconds": self.seconds,
            "flight": self.flight,
        }


class _WorkerSupervision:
    """The worker half of supervision: everything that touches disk.

    Built (picklable) by :meth:`SupervisedRuntime._spawn` and handed to
    :func:`repro.engine.parallel._ring_shard_loop`, which calls it at
    fixed points of a frame's life and puts every ring frame itself.
    """

    #: How long the ring worker blocks on an idle input ring.
    heartbeat_interval = HEARTBEAT_INTERVAL

    def __init__(
        self,
        store_dir: str,
        fault_plan: Optional[FaultPlan],
        fault_floor: int,
        fsync: bool,
    ):
        self.store_dir = store_dir
        self.fault_plan = fault_plan
        self.fault_floor = fault_floor
        self.fsync = fsync

    def open(self, shard: int, merge: Any) -> Tuple[int, int]:
        """Open the shard's store and restore *merge* from its last
        durable snapshot; returns where that leaves the worker, as
        ``(applied_seq, emitted)``."""
        self.shard = shard
        self.merge = merge
        self.store = StateStore(self.store_dir, fsync=self.fsync)
        # Always-on flight recorder: crashes are exactly the runs where
        # opt-in diagnostics would have been off, and the per-batch cost
        # is one dict append.
        self.flight = FlightRecorder(capacity=FLIGHT_CAPACITY)
        applied_seq = emitted = 0
        loaded = load_snapshot(self.store)
        if loaded is not None:
            merge_state, applied_seq, emitted = loaded
            merge.restore_state(merge_state)
        self._batches_since_ckpt = 0
        self._last_ckpt_stable = merge.max_stable
        return applied_seq, emitted

    def idle(self) -> None:
        self.flight.flush(self.store)

    def batch_applied(
        self, seq: int, rows_in: int, rows_out: int, seconds: float
    ) -> None:
        """Batch *seq* is applied and its output published: record it,
        then fire the fault sites (so this may not return)."""
        shard = self.shard
        # Deterministic causal id, derived from the journal sequence: the
        # same batch carries the same trace id across crash and replay,
        # so these entries stitch into the driver-side trace.
        self.flight.record(
            "batch",
            tid=make_trace_id(shard, seq),
            seq=seq,
            n=rows_in,
            out=rows_out,
            dur=seconds,
            stable=self.merge.max_stable,
        )
        # Flush per batch, not per checkpoint: the postmortem must show
        # the victim's *final* batches, not its last durable ones.
        self.flight.flush(self.store)
        plan = self.fault_plan
        if plan is not None:
            if plan.kill_after(shard, seq, self.fault_floor):
                os._exit(KILL_EXIT_CODE)
            if plan.stall_after(shard, seq, self.fault_floor):
                while True:  # simulated hang until the supervisor kills us
                    time.sleep(0.05)
        self._batches_since_ckpt += 1

    def checkpoint_due(self) -> bool:
        return (
            self._batches_since_ckpt >= CHECKPOINT_EVERY
            or self.merge.max_stable > self._last_ckpt_stable
        )

    def checkpoint(self, applied_seq: int, emitted: int) -> int:
        """Make the merge's state durable; returns the store's size."""
        save_snapshot(self.store, self.merge, applied_seq, emitted)
        self.flight.flush(self.store)
        self._batches_since_ckpt = 0
        self._last_ckpt_stable = self.merge.max_stable
        return self.store.total_bytes

    def close(self, applied_seq: int, emitted: int) -> None:
        save_snapshot(self.store, self.merge, applied_seq, emitted)
        self.flight.flush(self.store)
        self.store.close()


#: Journal entries: ("batch", stream_id, ColumnBatch) or ("op", op_tuple).
_JournalEntry = Tuple


class SupervisedRuntime(ParallelRuntime):
    """A crash-recovering :class:`ParallelRuntime` (process + columnar).

    ::

        runtime = SupervisedRuntime(
            factory, num_shards=4, durable_dir="/var/lib/merge",
        ).start()

    Durable state lives under ``durable_dir/shard-<i>/``; a later
    ``SupervisedRuntime`` over the same directory resumes each shard
    from its snapshot (the driver-restart story is the `repro.ha`
    jumpstart seam — see docs/RESILIENCE.md).

    *fault_plan* injects deterministic faults for chaos testing; see
    :class:`~repro.resilience.faults.FaultPlan`.
    """

    def __init__(
        self,
        factory: ShardFactory,
        num_shards: int,
        *,
        durable_dir: str,
        fault_plan: Optional[FaultPlan] = None,
        fsync: bool = False,
        coalesce_stables: bool = False,
        registry=None,
        telemetry_interval: float = 0.0,
        tracer=None,
    ):
        super().__init__(
            factory,
            num_shards,
            backend="process",
            coalesce_stables=coalesce_stables,
            registry=registry,
            envelope="columnar",
            telemetry_interval=telemetry_interval,
            tracer=tracer,
        )
        self.durable_dir = durable_dir
        self.fault_plan = fault_plan
        #: ``os.fsync`` on every store write: off survives a worker crash,
        #: on also survives power loss.
        self.fsync = fsync
        #: Completed recoveries, for introspection and chaos reports.
        self.recoveries: List[RecoveryRecord] = []
        n = num_shards
        self._journal: List[List[Tuple[int, _JournalEntry]]] = [
            [] for _ in range(n)
        ]
        self._last_beat = [0.0] * n
        self._restarts = [0] * n
        self._needs_recovery = [False] * n
        self._recovery_reason = [""] * n
        self._last_ckpt_ack: List[Optional[Tuple]] = [None] * n
        self._delayed: List[Optional[Tuple[int, _JournalEntry]]] = [None] * n
        self._ckpt_ident = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "SupervisedRuntime":
        os.makedirs(self.durable_dir, exist_ok=True)
        super().start()
        for shard in range(self.num_shards):
            resumed = self._await_resumed(shard)
            if resumed is None:
                self._abort()
                raise ShardError(
                    shard, "worker failed to announce itself at startup"
                )
            applied, emitted = resumed
            # Resuming over an existing durable_dir (driver restart):
            # pick the sequence numbering and output coordinate back up
            # where the snapshot left them.
            self._next_seq[shard] = applied + 1
            self._delivered[shard] = emitted
        return self

    def _store_dir(self, shard: int) -> str:
        return os.path.join(self.durable_dir, f"shard-{shard}")

    def _worker_supervision(self, shard: int) -> "_WorkerSupervision":
        return _WorkerSupervision(
            store_dir=self._store_dir(shard),
            fault_plan=self.fault_plan,
            # A respawned worker must not re-trigger the fault that
            # killed it while replaying: sites at or below the highest
            # delivered sequence are spent.
            fault_floor=self._next_seq[shard] - 1,
            fsync=self.fsync,
        )

    def _await_resumed(self, shard: int) -> Optional[Tuple[int, int]]:
        """Wait for the worker's ``("resumed", applied, emitted)``."""
        deadline = monotonic() + RESUME_TIMEOUT
        ring = self._out_rings[shard]
        while monotonic() < deadline:
            try:
                frame = ring.get(timeout=0.05)
            except RingClosedError:
                return None
            if frame is None:
                continue
            kind, payload = frame
            if kind == shm_rings.HB:
                message = pickle.loads(payload)
                if message[0] == "resumed":
                    self._last_beat[shard] = monotonic()
                    return message[1], message[2]
            elif kind == shm_rings.ERR:
                self._recovery_reason[shard] = pickle.loads(payload)
                return None
        return None

    # ------------------------------------------------------------------
    # Health & recovery
    # ------------------------------------------------------------------

    def _shard_ok(self, shard: int) -> bool:
        """False once *shard* needs recovering — flagged by its own
        report, dead, or silent past the heartbeat timeout — with the
        reason recorded."""
        if self._needs_recovery[shard]:
            return False
        process = self._processes[shard]
        if process is None or not process.is_alive():
            self._recovery_reason[shard] = self._recovery_reason[shard] or (
                f"worker process died (exitcode {getattr(process, 'exitcode', None)})"
            )
            return False
        if monotonic() - self._last_beat[shard] > HEARTBEAT_TIMEOUT:
            self._recovery_reason[shard] = (
                f"heartbeat stalled for more than {HEARTBEAT_TIMEOUT}s"
            )
            return False
        return True

    def _read_flight(self, shard: int) -> List[dict]:
        """The dead worker's last flight-recorder flush (postmortem).

        Only called once the worker process is confirmed dead — the
        store is single-writer, and the respawned incarnation only opens
        it after this read.
        """
        try:
            with StateStore(self._store_dir(shard)) as store:
                return FlightRecorder.read(store)
        except (OSError, StateStoreError):  # pragma: no cover - damaged slots
            return []

    def _recover(self, shard: int) -> None:
        """Kill the remnants, respawn from the last durable checkpoint,
        and replay the journal tail.  Raises :class:`ShardError` once
        :data:`MAX_RESTARTS` is exhausted."""
        started = perf_counter()
        reason = self._recovery_reason[shard] or "unhealthy"
        registry = self.registry
        while True:
            if self._restarts[shard] >= MAX_RESTARTS:
                self._abort()
                raise ShardError(
                    shard,
                    f"exceeded MAX_RESTARTS={MAX_RESTARTS}; "
                    f"last failure: {reason}",
                )
            self._restarts[shard] += 1
            attempt = self._restarts[shard]
            if registry is not None:
                registry.counter(
                    "restarts_total", {"shard": shard}
                ).inc()
            time.sleep(
                min(RESTART_BACKOFF_CAP, RESTART_BACKOFF * 2 ** (attempt - 1))
            )
            # Salvage whatever the dying worker managed to publish (the
            # output dedup makes re-delivery after replay harmless).
            while self._drain_shm_ring(shard, timeout=0):
                pass
            process = self._processes[shard]
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=5)
                if process.is_alive():  # pragma: no cover - stuck in kernel
                    process.kill()
                    process.join(timeout=5)
            self._in_rings[shard].destroy()
            self._out_rings[shard].destroy()
            # The worker is confirmed dead: its StateStore has a single
            # writer again, so the driver can read the victim's last
            # flight-recorder flush for the postmortem record.
            flight = self._read_flight(shard)
            self._needs_recovery[shard] = False
            self._recovery_reason[shard] = ""
            self._last_ckpt_ack[shard] = None
            self._delayed[shard] = None
            self._spawn(shard)
            resumed = self._await_resumed(shard)
            if resumed is None:
                reason = self._recovery_reason[shard] or (
                    "respawned worker failed to resume"
                )
                continue
            resumed_seq, _ = resumed
            replayed_entries = 0
            replayed_elements = 0
            ok = True
            for seq, entry in self._journal[shard]:
                if seq <= resumed_seq:
                    continue
                if not self._put_entry(shard, seq, entry):
                    reason = self._recovery_reason[shard] or (
                        "worker died during journal replay"
                    )
                    ok = False
                    break
                replayed_entries += 1
                if entry[0] == "batch":
                    replayed_elements += len(entry[2])
            if not ok:
                continue
            break
        seconds = perf_counter() - started
        record = RecoveryRecord(
            shard=shard,
            attempt=self._restarts[shard],
            reason=reason,
            resumed_seq=resumed_seq,
            replayed_entries=replayed_entries,
            replayed_elements=replayed_elements,
            seconds=seconds,
            flight=flight,
        )
        self.recoveries.append(record)
        if registry is not None:
            registry.counter(
                "replayed_elements_total", {"shard": shard}
            ).inc(replayed_elements)
            registry.histogram("recovery_seconds").observe(seconds)

    # ------------------------------------------------------------------
    # Sequenced delivery
    # ------------------------------------------------------------------

    def _send(self, shard: int, entry: _JournalEntry) -> None:
        """Number the entry, journal it, *then* deliver — through the
        fault plan's frame drop / duplicate / delay when one is set."""
        seq = self._next_seq[shard]
        self._next_seq[shard] = seq + 1
        self._journal[shard].append((seq, entry))
        if not self._shard_ok(shard):
            # The entry is journaled; recovery's replay delivers it.
            self._recover(shard)
            return
        plan = self.fault_plan
        if plan is not None:
            if plan.drop_frame(shard, seq):
                return
            if plan.delay_frame(shard, seq):
                self._delayed[shard] = (seq, entry)
                return
        ok = self._put_entry(shard, seq, entry)
        if ok and plan is not None and plan.duplicate_frame(shard, seq):
            ok = self._put_entry(shard, seq, entry)
        if ok and self._delayed[shard] is not None:
            late_seq, late_entry = self._delayed[shard]
            self._delayed[shard] = None
            ok = self._put_entry(shard, late_seq, late_entry)
        if not ok:
            self._recover(shard)

    # ------------------------------------------------------------------
    # Output path
    # ------------------------------------------------------------------

    def _drain_shm_ring(self, shard: int, timeout: float) -> bool:
        got = super()._drain_shm_ring(shard, timeout)
        if got:
            self._last_beat[shard] = monotonic()  # any frame is a beat
        return got

    def _answered(self, shard: int, seq: int) -> Sequence[Element]:
        """BATCH *seq*'s elements, read from the journal by number: a
        replayed worker answers frames again, and an OUT always lands
        before the CKPT ack that trims its frame."""
        journal = self._journal[shard]
        # The journal's seqs are consecutive; an OUT only answers a BATCH.
        index = seq - journal[0][0] if journal else -1
        if 0 <= index < len(journal):
            return journal[index][1][2].to_elements()
        return ()

    def _worker_report(self, shard: int, kind: int, message: Any) -> None:
        if kind == shm_rings.CKPT:
            self._note_checkpoint(shard, message)
            return
        reason = self._reported_failure(kind, message)
        if reason is not None:
            self._needs_recovery[shard] = True
            self._recovery_reason[shard] = reason

    def _note_checkpoint(self, shard: int, message: Tuple) -> None:
        """A durable checkpoint landed: trim the journal behind it."""
        _, applied_seq, _emitted, store_bytes = message
        self._last_ckpt_ack[shard] = message
        journal = self._journal[shard]
        cut = 0
        while cut < len(journal) and journal[cut][0] <= applied_seq:
            cut += 1
        if cut:
            del journal[:cut]
        if self.registry is not None:
            self.registry.gauge(
                "state_store_bytes", {"store": f"shard-{shard}"}
            ).set(store_bytes)

    def poll(self):
        self._require_started()
        if not self._closed:
            for shard in range(self.num_shards):
                if not self._shard_ok(shard):
                    self._recover(shard)
        return super().poll()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def _flush_shard(self, shard: int) -> None:
        """Checkpoint handshake guaranteeing the worker has applied (and
        made durable) every journaled frame — this is what turns a
        trailing dropped/delayed frame into a recovery instead of silent
        loss."""
        while True:
            if not self._shard_ok(shard):
                self._recover(shard)
                continue
            target = self._next_seq[shard] - 1
            self._ckpt_ident += 1
            ident = f"flush-{self._ckpt_ident}"
            if not self._put_control(shard, ("ckpt", ident)):
                self._recover(shard)
                continue
            deadline = monotonic() + HANDSHAKE_TIMEOUT
            ack: Optional[Tuple] = None
            while monotonic() < deadline:
                self._drain_shm_ring(shard, timeout=0.05)
                if not self._shard_ok(shard):
                    break
                last = self._last_ckpt_ack[shard]
                if last is not None and last[0] == ident:
                    ack = last
                    break
            if ack is None:
                self._recover(shard)
                continue
            if ack[1] == target:
                return
            # The worker never saw the journal's tail (a dropped or
            # still-delayed final frame): force a replay.
            self._needs_recovery[shard] = True
            self._recovery_reason[shard] = (
                f"flush found worker at seq {ack[1]}, journal at {target}"
            )
            self._recover(shard)

    def _stop_workers(self) -> None:
        """One shard at a time: flush handshake, sentinel, wait for DONE
        — recovering and starting over if the worker dies on the way."""
        for shard in range(self.num_shards):
            while shard not in self._final_stats:
                self._flush_shard(shard)
                if not self._put_control(shard, None):
                    self._recover(shard)
                    continue
                deadline = monotonic() + HANDSHAKE_TIMEOUT
                while (
                    shard not in self._final_stats
                    and monotonic() < deadline
                ):
                    self._drain_shm_ring(shard, timeout=0.05)
                    if self._needs_recovery[shard]:
                        break
                if shard not in self._final_stats:
                    # Died between flush and DONE; recover and retry the
                    # shutdown handshake from the checkpoint.
                    self._recover(shard)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def restarts(self) -> List[int]:
        """Restart count per shard."""
        return list(self._restarts)

    @property
    def replayed_elements(self) -> int:
        return sum(r.replayed_elements for r in self.recoveries)

    def journal_depth(self, shard: int) -> int:
        """Untrimmed journal entries for *shard* (drops to ~0 after each
        checkpoint ack)."""
        return len(self._journal[shard])
